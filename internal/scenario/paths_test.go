package scenario

import (
	"testing"
)

func TestTrafficPathBasics(t *testing.T) {
	s := buildSmall(t)
	// Traffic from every member to the measurement server follows a
	// connected, loop-free path ending at the server.
	for _, m := range s.Members {
		path := s.TrafficPath(m.ASIndex, s.MeasurementServer)
		if path == nil {
			t.Fatalf("member %s has no path to the server", m.ASN)
		}
		if path[0] != m.ASIndex || path[len(path)-1] != s.MeasurementServer {
			t.Fatalf("path endpoints wrong: %v", path)
		}
		seen := map[int]bool{}
		for i, hop := range path {
			if seen[hop] {
				t.Fatalf("loop in path %v", path)
			}
			seen[hop] = true
			if i == 0 {
				continue
			}
			// Each hop pair is an actual topology link (any relation).
			prev := path[i-1]
			linked := contains(s.ASInfo(prev).Providers, hop) ||
				contains(s.ASInfo(prev).Customers, hop) ||
				contains(s.ASInfo(prev).Peers, hop) ||
				contains(s.ASInfo(prev).VisibleSiblings, hop)
			if !linked {
				t.Fatalf("non-link hop %d->%d in path", prev, hop)
			}
		}
	}
}

func TestTrafficPathSelf(t *testing.T) {
	s := buildSmall(t)
	path := s.TrafficPath(s.MeasurementServer, s.MeasurementServer)
	if len(path) != 1 || path[0] != s.MeasurementServer {
		t.Fatalf("self path = %v", path)
	}
}

func TestTrafficPathCached(t *testing.T) {
	s := buildSmall(t)
	a := s.TrafficPath(s.Members[0].ASIndex, s.MeasurementServer)
	b := s.TrafficPath(s.Members[0].ASIndex, s.MeasurementServer)
	if len(a) != len(b) {
		t.Fatal("cached tree changed the path")
	}
}

func TestLinkRouterAddrs(t *testing.T) {
	s := buildSmall(t)
	for _, m := range s.Members {
		addrs := s.LinkRouterAddrs(m.ASIndex)
		provs := s.ASInfo(m.ASIndex).Providers
		if len(addrs) > len(provs) {
			t.Fatalf("more router addrs (%d) than providers (%d)", len(addrs), len(provs))
		}
		for i, a := range addrs {
			// Each link address is numbered out of the corresponding
			// provider's first announced block.
			prov := s.ASInfo(provs[i])
			if len(prov.Announced) == 0 {
				continue
			}
			if !prov.Announced[0].Contains(a) {
				t.Fatalf("router addr %v outside provider block %v", a, prov.Announced[0])
			}
		}
	}
	// Determinism.
	a1 := s.LinkRouterAddrs(s.Members[0].ASIndex)
	a2 := s.LinkRouterAddrs(s.Members[0].ASIndex)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("router addrs not deterministic")
		}
	}
}
