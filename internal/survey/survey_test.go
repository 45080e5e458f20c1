package survey

import (
	"strings"
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
	return s, Conduct(s, 30, 4)
}

func TestConductBasics(t *testing.T) {
	s, d := dataset(t)
	if len(d.Responses) == 0 || len(d.Responses) > 30 {
		t.Fatalf("responses = %d", len(d.Responses))
	}
	seen := map[uint32]bool{}
	for _, r := range d.Responses {
		m := memberByASN(s, r.ASN)
		if m == nil {
			t.Fatalf("respondent %v is not a member", r.ASN)
		}
		if seen[uint32(r.ASN)] {
			t.Fatalf("duplicate respondent %v", r.ASN)
		}
		seen[uint32(r.ASN)] = true
		// Ground-truth consistency: a member with no leaks reports
		// customer-specific egress filtering.
		filters := !m.EmitsUnrouted && !m.EmitsInvalid
		if filters && r.Egress != EgressCustomerSpecific {
			t.Errorf("filtering member %v reported egress %v", r.ASN, r.Egress)
		}
		if !filters && len(r.Obstacles) == 0 {
			t.Errorf("non-filtering member %v cited no obstacles", r.ASN)
		}
		if filters && len(r.Obstacles) != 0 {
			t.Errorf("filtering member %v cited obstacles", r.ASN)
		}
	}
}

func TestConductDeterministic(t *testing.T) {
	s, err := scenario.Build(scenario.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := Conduct(s, 25, 9)
	b := Conduct(s, 25, 9)
	if len(a.Responses) != len(b.Responses) {
		t.Fatal("non-deterministic response count")
	}
	for i := range a.Responses {
		if a.Responses[i].ASN != b.Responses[i].ASN ||
			a.Responses[i].Egress != b.Responses[i].Egress {
			t.Fatalf("response %d differs", i)
		}
	}
}

func TestSummaryShape(t *testing.T) {
	_, d := dataset(t)
	s := d.Summarize()
	if s.Responses != len(d.Responses) {
		t.Fatalf("Responses = %d", s.Responses)
	}
	// Paper-shape bounds (generous for a small sample).
	if s.SufferedFrac < 0.4 || s.SufferedFrac > 1.0 {
		t.Errorf("suffered = %v, want ~0.72", s.SufferedFrac)
	}
	if got := s.IngressNoneFrac + s.IngressStaticFrac + s.IngressCustomerFrac; got < 0.999 || got > 1.001 {
		t.Errorf("ingress fractions sum to %v", got)
	}
	if got := s.EgressNoneFrac + s.EgressStaticFrac + s.EgressCustomerFrac; got < 0.999 || got > 1.001 {
		t.Errorf("egress fractions sum to %v", got)
	}
	// Static bogon ingress filtering dominates (paper: ~70%).
	if s.IngressStaticFrac < 0.4 {
		t.Errorf("ingress static = %v", s.IngressStaticFrac)
	}
	if s.TopObstacle == "" || s.TopObstacleRespondents == 0 {
		t.Error("no obstacles aggregated")
	}
	out := s.Render()
	if !strings.Contains(out, "operator survey") || !strings.Contains(out, "obstacle") {
		t.Error("render broken")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := (&Dataset{}).Summarize()
	if s.Responses != 0 {
		t.Fatal("phantom responses")
	}
	if !strings.Contains(s.Render(), "0 responses") {
		t.Error("empty render broken")
	}
}

// TestSurveyBias verifies the acknowledged sampling bias: filtering
// operators are over-represented relative to the member population.
func TestSurveyBias(t *testing.T) {
	s, d := dataset(t)
	filteringMembers, totalMembers := 0, len(s.Members)
	for _, m := range s.Members {
		if !m.EmitsUnrouted && !m.EmitsInvalid {
			filteringMembers++
		}
	}
	filteringRespondents := 0
	for _, r := range d.Responses {
		m := memberByASN(s, r.ASN)
		if !m.EmitsUnrouted && !m.EmitsInvalid {
			filteringRespondents++
		}
	}
	popFrac := float64(filteringMembers) / float64(totalMembers)
	respFrac := float64(filteringRespondents) / float64(len(d.Responses))
	if respFrac <= popFrac {
		t.Errorf("no response bias: population %.2f vs respondents %.2f", popFrac, respFrac)
	}
}

// memberByASN returns the scenario's member with that ASN, or nil.
func memberByASN(s *scenario.Scenario, asn bgp.ASN) *scenario.Member {
	for i := range s.Members {
		if s.Members[i].ASN == asn {
			return &s.Members[i]
		}
	}
	return nil
}
