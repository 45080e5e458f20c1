package core

import (
	"bytes"
	"testing"

	"spoofscope/internal/bgp"
	"spoofscope/internal/flowgen"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
	"spoofscope/internal/scenario"
	"spoofscope/internal/traceroute"
)

// buildEndToEnd runs the full chain: scenario -> MRT -> RIB -> pipeline,
// plus labeled traffic.
func buildEndToEnd(t *testing.T) (*scenario.Scenario, *Pipeline, []ipfix.Flow, []flowgen.Label) {
	t.Helper()
	s, _, p, flows, labels := buildEndToEndRIB(t)
	return s, p, flows, labels
}

// buildEndToEndRIB is buildEndToEnd that also hands back the RIB the pipeline
// was compiled from: the oracle reads the routed table from it, not from any
// compiled index.
func buildEndToEndRIB(t *testing.T) (*scenario.Scenario, *bgp.RIB, *Pipeline, []ipfix.Flow, []flowgen.Label) {
	t.Helper()
	s, err := scenario.Build(scenario.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var mrt bytes.Buffer
	if err := s.WriteMRT(&mrt); err != nil {
		t.Fatal(err)
	}
	rib := bgp.NewRIB()
	if err := rib.LoadMRT(&mrt); err != nil {
		t.Fatal(err)
	}
	var members []MemberInfo
	for _, m := range s.Members {
		members = append(members, MemberInfo{ASN: m.ASN, Port: m.Port})
	}
	p, err := NewPipeline(rib, members, Options{
		Orgs:    s.Orgs().MultiASGroups(),
		Routers: netx.NewAddrSet(endToEndRouters(s)),
	})
	if err != nil {
		t.Fatal(err)
	}
	fcfg := flowgen.DefaultConfig()
	fcfg.RegularPerBucket = 150
	g := flowgen.New(s, fcfg)
	var flows []ipfix.Flow
	var labels []flowgen.Label
	g.Generate(func(f ipfix.Flow, l flowgen.Label) {
		flows = append(flows, f)
		labels = append(labels, l)
	})
	return s, rib, p, flows, labels
}

// endToEndRouters is the router set the end-to-end pipeline tags with: the
// intermediate hops of a simulated traceroute campaign over the scenario.
func endToEndRouters(s *scenario.Scenario) []netx.Addr {
	return traceroute.Simulate(s, 8, 0.05, 3).ExtractRouters().Addrs()
}

func TestEndToEndClassification(t *testing.T) {
	_, p, flows, labels := buildEndToEnd(t)

	type cell struct{ total, hit int }
	perLabel := map[flowgen.Label]*cell{}
	classCount := map[Class]int{}
	for i, f := range flows {
		v := p.Classify(f)
		classCount[v.Class]++
		c := perLabel[labels[i]]
		if c == nil {
			c = &cell{}
			perLabel[labels[i]] = c
		}
		c.total++
		var hit bool
		switch labels[i] {
		case flowgen.LabelBogonLeak, flowgen.LabelBogonAttack:
			hit = v.Class == ClassBogon
		case flowgen.LabelUnroutedLeak, flowgen.LabelRandomFlood, flowgen.LabelSteamFlood:
			// Random floods draw from held + never-routed space; both must
			// land in Unrouted.
			hit = v.Class == ClassUnrouted
		case flowgen.LabelInvalidSpoof:
			hit = v.InvalidFor(ApproachFull)
		case flowgen.LabelNTPTrigger:
			// Spoofed victim sources are routed and outside the attacker's
			// cone; FULL should catch nearly all.
			hit = v.InvalidFor(ApproachFull)
		case flowgen.LabelStrayRouter:
			hit = v.InvalidFor(ApproachFull) && v.RouterIP
		case flowgen.LabelRegular, flowgen.LabelNTPResponse:
			// The paper's operating point is Invalid FULL: the naive and
			// CC approaches are EXPECTED to misclassify asymmetric
			// announcements (that is why Full Cone was chosen).
			hit = v.Class == ClassValid ||
				(v.Class == ClassInvalid && !v.Invalid[ApproachFull])
		case flowgen.LabelOrgInternal:
			// Valid once multi-AS organisations are merged.
			hit = v.Class == ClassValid ||
				(v.Class == ClassInvalid && !v.Invalid[ApproachFull])
		case flowgen.LabelRouteLeak:
			// Naive must flag peers'-cone traffic (no path through the
			// member carries those prefixes).
			hit = v.Class == ClassValid || v.Invalid[ApproachNaive]
		case flowgen.LabelHiddenPeer:
			// Known false positives: counted separately below.
			hit = v.Class == ClassInvalid
		}
		if hit {
			c.hit++
		}
	}

	check := func(l flowgen.Label, minRecall float64) {
		t.Helper()
		c := perLabel[l]
		if c == nil || c.total == 0 {
			t.Errorf("label %v: no flows", l)
			return
		}
		if r := float64(c.hit) / float64(c.total); r < minRecall {
			t.Errorf("label %v: recall %.3f (%d/%d), want >= %.2f", l, r, c.hit, c.total, minRecall)
		}
	}
	check(flowgen.LabelBogonLeak, 1.0)
	check(flowgen.LabelBogonAttack, 1.0)
	check(flowgen.LabelUnroutedLeak, 1.0)
	check(flowgen.LabelRandomFlood, 1.0)
	check(flowgen.LabelRegular, 0.97)     // conservative: some false positives allowed
	check(flowgen.LabelInvalidSpoof, 0.8) // full cone inflation loses some
	check(flowgen.LabelNTPTrigger, 0.8)
	// Stray router sources are caught when the provider's block is outside
	// the member's full cone; members of multi-AS organisations (mutual
	// transit inflates their cones) legitimately absorb some strays.
	check(flowgen.LabelStrayRouter, 0.5)
	check(flowgen.LabelHiddenPeer, 0.8) // these SHOULD be flagged (FPs by design)
	check(flowgen.LabelOrgInternal, 0.9)
	check(flowgen.LabelRouteLeak, 0.9)

	if classCount[ClassValid] == 0 || classCount[ClassInvalid] == 0 ||
		classCount[ClassBogon] == 0 || classCount[ClassUnrouted] == 0 {
		t.Fatalf("class counts degenerate: %v", classCount)
	}
}

func TestEndToEndApproachContainment(t *testing.T) {
	_, p, flows, _ := buildEndToEnd(t)
	var nNaive, nCC, nFull uint64
	for _, f := range flows {
		v := p.Classify(f)
		if v.Class != ClassInvalid && v.Class != ClassValid {
			continue
		}
		// Per-flow containment: invalid FULL => invalid CC => invalid NAIVE
		// would hold for pure origin checks; naive is prefix-granular, so
		// assert the volume ordering instead (Table 1's key shape) plus
		// strict FULL => CC.
		if v.Invalid[ApproachFull] && !v.Invalid[ApproachCC] {
			t.Fatalf("flow invalid under FULL but valid under CC: %+v", v)
		}
		if v.Invalid[ApproachNaive] {
			nNaive++
		}
		if v.Invalid[ApproachCC] {
			nCC++
		}
		if v.Invalid[ApproachFull] {
			nFull++
		}
	}
	if !(nNaive >= nCC && nCC >= nFull) {
		t.Fatalf("invalid volume ordering violated: naive=%d cc=%d full=%d", nNaive, nCC, nFull)
	}
	if nFull == 0 {
		t.Fatal("no invalid FULL traffic at all")
	}
}

func TestEndToEndAggregator(t *testing.T) {
	s, p, flows, _ := buildEndToEnd(t)
	agg := NewAggregator(s.Cfg.Start, s.Cfg.Duration/100)
	for _, f := range flows {
		agg.Add(f, p.Classify(f))
	}
	for _, m := range s.Members {
		agg.SetMemberASN(m.Port, m.ASN)
	}

	if agg.GrandTotal.Flows != uint64(len(flows)) {
		t.Fatalf("GrandTotal.Flows = %d, want %d", agg.GrandTotal.Flows, len(flows))
	}
	// Regular dominates.
	if agg.Total[TCRegular].Packets < agg.GrandTotal.Packets/2 {
		t.Fatal("regular does not dominate")
	}
	// Invalid ordering (Table 1).
	if !(agg.Total[TCInvalidNaive].Packets >= agg.Total[TCInvalidCC].Packets &&
		agg.Total[TCInvalidCC].Packets >= agg.Total[TCInvalidFull].Packets) {
		t.Fatalf("Table 1 ordering violated: %v %v %v",
			agg.Total[TCInvalidNaive].Packets,
			agg.Total[TCInvalidCC].Packets,
			agg.Total[TCInvalidFull].Packets)
	}
	// Member participation: bogon members outnumber... every class has
	// contributing members.
	for _, c := range []TrafficClass{TCBogon, TCUnrouted, TCInvalidFull} {
		if agg.ContributingMembers(c) == 0 {
			t.Fatalf("no members contribute to %v", c)
		}
	}
	// Members got ASNs.
	for _, m := range agg.Members() {
		if m.ASN == 0 {
			t.Fatal("member without ASN")
		}
	}
	// Fan-in captured flood destinations.
	if len(agg.FanIn[TCUnrouted]) == 0 {
		t.Fatal("no unrouted fan-in tracked")
	}
	// NTP bookkeeping.
	if len(agg.TriggerPairs) == 0 {
		t.Fatal("no NTP trigger pairs")
	}
	if len(agg.ResponsePairs) == 0 {
		t.Fatal("no NTP response pairs")
	}
	if len(agg.TriggerSeries) == 0 || len(agg.ResponseSeries) == 0 {
		t.Fatal("NTP series empty")
	}
	// Size histograms: spoofed classes skew small, regular has the big
	// mode.
	bigRegular := uint64(0)
	agg.SizeHist.RangeClass(TCRegular, func(size int, n uint64) {
		if size > 1000 {
			bigRegular += n
		}
	})
	if bigRegular == 0 {
		t.Fatal("regular size histogram lost the data mode")
	}
	// Unrouted is almost exclusively small packets; Invalid is small-heavy
	// but carries the designed §4.4 false positives (regular-shaped).
	for c, minSmall := range map[TrafficClass]float64{TCUnrouted: 0.8, TCInvalidFull: 0.65} {
		small, all := uint64(0), uint64(0)
		agg.SizeHist.RangeClass(c, func(size int, n uint64) {
			all += n
			if size <= 90 {
				small += n
			}
		})
		if all > 0 && float64(small)/float64(all) < minSmall {
			t.Fatalf("%v packets not small: %d/%d", c, small, all)
		}
	}
}

func TestEndToEndVerdictDeterminism(t *testing.T) {
	_, p, flows, _ := buildEndToEnd(t)
	for i := 0; i < 100 && i < len(flows); i++ {
		a, b := p.Classify(flows[i]), p.Classify(flows[i])
		if a != b {
			t.Fatalf("non-deterministic verdict for flow %d", i)
		}
	}
}
