package spoofer

import (
	"testing"

	"spoofscope/internal/bgp"
	"spoofscope/internal/scenario"
)

func dataset(t *testing.T) (*scenario.Scenario, *Dataset) {
	t.Helper()
	s, err := scenario.Build(scenario.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s, Simulate(s, 0.3, 11)
}

func TestSimulateBasics(t *testing.T) {
	s, d := dataset(t)
	if len(d.Results) == 0 {
		t.Fatal("no results")
	}
	isMember := map[bgp.ASN]bool{}
	for _, m := range s.Members {
		isMember[m.ASN] = true
	}
	memberProbes, spoofable := 0, 0
	for _, r := range d.Results {
		if r.Sessions < 1 {
			t.Fatalf("result without sessions: %+v", r)
		}
		if got := d.byASN[r.ASN]; got == nil || got.ASN != r.ASN {
			t.Fatal("result index broken")
		}
		if isMember[r.ASN] {
			memberProbes++
		}
		if r.CouldSpoof {
			spoofable++
			if r.BlockedAt != 0 {
				t.Fatalf("spoofable result names a blocker: %+v", r)
			}
		}
	}
	wantMembers := int(0.3 * float64(len(s.Members)))
	if memberProbes < wantMembers-2 || memberProbes > wantMembers+2 {
		t.Errorf("member probes = %d, want ~%d", memberProbes, wantMembers)
	}
	// Some but not all probes succeed (the paper: ~30% spoofable).
	if spoofable == 0 || spoofable == len(d.Results) {
		t.Errorf("spoofable = %d of %d", spoofable, len(d.Results))
	}
}

func TestFilteringMembersNeverSpoofable(t *testing.T) {
	s, d := dataset(t)
	for _, m := range s.Members {
		r := d.byASN[m.ASN]
		if r == nil {
			continue
		}
		if !m.EmitsUnrouted && !m.EmitsInvalid && r.CouldSpoof {
			t.Fatalf("filtering member %s reported spoofable", m.ASN)
		}
		if !m.EmitsUnrouted && !m.EmitsInvalid && r.BlockedAt != m.ASN {
			t.Fatalf("filtering member %s blocked at %s, want self", m.ASN, r.BlockedAt)
		}
	}
}

func TestTransitFilteringBlocksSomeProbes(t *testing.T) {
	s, d := dataset(t)
	blockedMidPath := 0
	for _, r := range d.Results {
		if !r.CouldSpoof && r.BlockedAt != 0 && r.BlockedAt != r.ASN {
			blockedMidPath++
		}
	}
	if len(s.TransitFilters) > 0 && blockedMidPath == 0 {
		t.Error("no probe was blocked by transit filtering")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	s, err := scenario.Build(scenario.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := Simulate(s, 0.25, 5)
	b := Simulate(s, 0.25, 5)
	if len(a.Results) != len(b.Results) {
		t.Fatal("result counts differ")
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			t.Fatalf("result %d differs", i)
		}
	}
}

func TestCrossCheck(t *testing.T) {
	_, d := dataset(t)
	passive := make(map[bgp.ASN]bool)
	// Passive agrees with active for spoofable ASes, plus detects one
	// extra, plus covers one AS active has no data for.
	var firstSpoofable, firstFiltered bgp.ASN
	for _, r := range d.Results {
		if r.CouldSpoof && firstSpoofable == 0 {
			firstSpoofable = r.ASN
		}
		if !r.CouldSpoof && firstFiltered == 0 {
			firstFiltered = r.ASN
		}
	}
	if firstSpoofable == 0 || firstFiltered == 0 {
		t.Skip("degenerate dataset")
	}
	passive[firstSpoofable] = true
	passive[firstFiltered] = true // passive-only detection
	passive[9999999] = true       // no active data: ignored

	c := d.CrossCheckPassive(passive)
	if c.Overlap != 2 {
		t.Fatalf("overlap = %d", c.Overlap)
	}
	if c.PassiveDetected != 2 || c.AgreeOnPassive != 1 || c.PassiveOnlyDetected != 1 {
		t.Fatalf("cross-check = %+v", c)
	}
}
