package netx

import (
	"math/rand"
	"testing"
)

func TestAddrSetBasic(t *testing.T) {
	s := NewAddrSet([]Addr{MustParseAddr("10.0.0.1"), MustParseAddr("192.0.2.7")})
	if !s.Contains(MustParseAddr("10.0.0.1")) || !s.Contains(MustParseAddr("192.0.2.7")) {
		t.Fatal("stored address missing")
	}
	if s.Contains(MustParseAddr("10.0.0.2")) || s.Contains(0) {
		t.Fatal("unstored address found")
	}
}

func TestAddrSetZeroAndDuplicates(t *testing.T) {
	s := NewAddrSet([]Addr{0, 0, 5, 5, 5})
	if !s.Contains(0) || !s.Contains(5) {
		t.Fatal("member missing")
	}
	empty := NewAddrSet(nil)
	if empty.Contains(0) || empty.Contains(1) {
		t.Fatal("empty set matched")
	}
	var zero AddrSet
	if zero.Contains(0) || zero.Contains(42) {
		t.Fatal("zero value matched")
	}
}

// TestAddrSetProperty checks AddrSet against a Go map over adversarial
// inputs: clustered addresses (shared high bits defeat weak hashes) and
// uniform noise.
func TestAddrSetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 20; iter++ {
		n := rng.Intn(2000)
		ref := make(map[Addr]bool, n)
		addrs := make([]Addr, 0, n)
		base := Addr(rng.Uint32())
		for i := 0; i < n; i++ {
			var a Addr
			switch i % 3 {
			case 0:
				a = Addr(rng.Uint32())
			case 1:
				a = base + Addr(rng.Intn(64)) // dense cluster
			default:
				a = Addr(rng.Uint32()) &^ 0xFFFF // whole-chunk collisions
			}
			ref[a] = true
			addrs = append(addrs, a)
		}
		s := NewAddrSet(addrs)
		for a := range ref {
			if !s.Contains(a) {
				t.Fatalf("missing member %v", a)
			}
		}
		for probe := 0; probe < 2000; probe++ {
			a := Addr(rng.Uint32())
			if s.Contains(a) != ref[a] {
				t.Fatalf("Contains(%v) = %v, want %v", a, s.Contains(a), ref[a])
			}
		}
	}
}
