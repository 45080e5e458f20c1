package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadIdentityPersists: the first start generates an identity and
// persists it, a restart reads the same one back, and an empty identity file
// — what an unsynced rename could leave after a crash — is refused rather
// than silently replaced by a stranger's identity.
func TestLoadIdentityPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "worker.id")
	first, err := loadIdentity(path, "w1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(first, "w1-") {
		t.Fatalf("generated identity %q does not carry the name", first)
	}
	again, err := loadIdentity(path, "w1")
	if err != nil || again != first {
		t.Fatalf("restart read identity %q, %v; want %q", again, err, first)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}

	if err := os.WriteFile(path, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if id, err := loadIdentity(path, "w1"); err == nil {
		t.Fatalf("empty identity file accepted as %q", id)
	}

	if id, err := loadIdentity("", "w1"); err != nil || id != "w1" {
		t.Fatalf("without a file the identity is the name: got %q, %v", id, err)
	}
}
