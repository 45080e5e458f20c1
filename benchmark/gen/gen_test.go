package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/core"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/scenario"
)

func smallScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	s, err := scenario.Build(scenario.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func smallPipeline(t *testing.T, s *scenario.Scenario) (*core.Pipeline, *bgp.RIB, []core.MemberInfo) {
	t.Helper()
	rib := bgp.NewRIB()
	for _, a := range s.Anns {
		rib.AddAnnouncement(a.Prefix, a.Path)
	}
	var members []core.MemberInfo
	for _, m := range s.Members {
		members = append(members, core.MemberInfo{ASN: m.ASN, Port: m.Port})
	}
	p, _, err := core.RebuildPipeline(nil, rib, members, core.Options{Orgs: s.Orgs().MultiASGroups()})
	if err != nil {
		t.Fatal(err)
	}
	return p, rib, members
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// The wire images of seed 1 on the small scenario. A change here means the
// inputs changed, and with them what every recorded number was measured on.
const (
	pinnedMixed  = "1e4e3d584a678c6e"
	pinnedAttack = "a097e430bbbb9520"
)

func TestSameSeedGivesIdenticalBytes(t *testing.T) {
	s := smallScenario(t)
	image := func(seed int64, attack bool) string {
		flows := MixedTrace(s, seed, 150)
		if attack {
			flows = AttackTrace(s, flows, seed)
		}
		return digest(Encode(s.Cfg.Start, flows).Bytes)
	}
	for _, tc := range []struct {
		name   string
		attack bool
		pinned string
	}{{"mixed", false, pinnedMixed}, {"attack", true, pinnedAttack}} {
		a, b, other := image(1, tc.attack), image(1, tc.attack), image(2, tc.attack)
		if a != b {
			t.Errorf("%s: seed 1 gave %s then %s", tc.name, a, b)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 gave the same image %s", tc.name, a)
		}
		if a != tc.pinned {
			t.Errorf("%s: seed 1 image is %s, pinned %s", tc.name, a, tc.pinned)
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	s := smallScenario(t)
	flows := MixedTrace(s, 1, 150)
	w := Encode(s.Cfg.Start, flows)
	got, err := w.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(flows) || w.Flows != len(flows) {
		t.Fatalf("%d flows in, %d out, image says %d", len(flows), len(got), w.Flows)
	}
	if want := (len(flows) + RecordsPerMessage - 1) / RecordsPerMessage; w.Messages() != want {
		t.Fatalf("%d messages, want %d", w.Messages(), want)
	}
	for i := range got {
		want := flows[i]
		want.Start = time.UnixMilli(want.Start.UnixMilli())
		if !got[i].Start.Equal(want.Start) {
			t.Fatalf("flow %d start %v, want %v", i, got[i].Start, want.Start)
		}
		got[i].Start, want.Start = time.Time{}, time.Time{}
		if got[i] != want {
			t.Fatalf("flow %d: %+v, want %+v", i, got[i], want)
		}
	}
}

func TestAttackTraceIsAnAttack(t *testing.T) {
	s := smallScenario(t)
	p, _, _ := smallPipeline(t, s)
	flows := AttackTrace(s, MixedTrace(s, 1, 150), 1)
	var notValid, switches, triggers, responses int
	for i, f := range flows {
		if p.Classify(f).Class != core.ClassValid {
			notValid++
		}
		if i > 0 && f.Ingress != flows[i-1].Ingress {
			switches++
		}
		if f.Protocol == ipfix.ProtoUDP && f.DstPort == 123 {
			triggers++
		}
		if f.Protocol == ipfix.ProtoUDP && f.SrcPort == 123 {
			responses++
		}
	}
	n := float64(len(flows))
	if share := float64(notValid) / n; share < 0.70 {
		t.Errorf("%.1f%% of the attack trace is not Valid, want at least 70%%", 100*share)
	}
	if share := float64(switches) / (n - 1); share < 0.90 {
		t.Errorf("ingress changes on %.1f%% of flows, want at least 90%%", 100*share)
	}
	if triggers == 0 || responses == 0 {
		t.Errorf("%d NTP triggers and %d responses, want both", triggers, responses)
	}
}

func TestRevisionCycleTiersAndReturn(t *testing.T) {
	s := smallScenario(t)
	p, rib, members := smallPipeline(t, s)
	opts := core.Options{Orgs: s.Orgs().MultiASGroups()}
	flows := MixedTrace(s, 1, 150)
	cycle := RevisionCycle(rib, Sources(flows), 1, 0)
	if len(cycle) != 10 {
		t.Fatalf("cycle has %d revisions, want 10", len(cycle))
	}
	prev := p
	for round := 0; round < 2; round++ {
		for i, rev := range cycle {
			next, st, err := core.RebuildPipeline(prev, rev.RIB, members, opts)
			if err != nil {
				t.Fatal(err)
			}
			if st.Reuse.String() != rev.Tier {
				t.Errorf("round %d revision %d rebuilt %s, want %s", round, i, st.Reuse, rev.Tier)
			}
			prev = next
		}
	}
	if got, want := cycle[len(cycle)-1].RIB.Fingerprint(), rib.Fingerprint(); got != want {
		t.Errorf("the cycle ends on fingerprint %+v, base is %+v", got, want)
	}
	again := RevisionCycle(rib, Sources(flows), 1, 0)
	other := RevisionCycle(rib, Sources(flows), 2, 0)
	if cycle[3].RIB.Fingerprint() != again[3].RIB.Fingerprint() {
		t.Error("the same seed gave two different revision cycles")
	}
	if cycle[3].RIB.Fingerprint() == other[3].RIB.Fingerprint() {
		t.Error("seeds 1 and 2 gave the same revision cycle")
	}
	// No renumbered or re-pathed prefix may hold a trace source.
	srcs := Sources(flows)
	base := make(map[string]bool)
	for _, a := range rib.Announcements() {
		base[a.Prefix.String()] = true
	}
	for _, a := range cycle[3].RIB.Announcements() {
		if !base[a.Prefix.String()] && covers(srcs, a.Prefix) {
			t.Fatalf("renumbered prefix %s holds a trace source", a.Prefix)
		}
	}
}

func TestScheduleIsOpenLoopArithmetic(t *testing.T) {
	s := Schedule{Cycle: time.Second, Burst: 20 * time.Millisecond, Tick: time.Millisecond, BaseRate: 1000, BurstRate: 50000}
	per := int64(s.FlowsPerCycle())
	if per != 980+1000 {
		t.Fatalf("flows per cycle %d, want 1980", per)
	}
	var last time.Duration
	inBurst, clear := 0, 0
	for n := int64(0); n < 3*per; n++ {
		at := s.Due(n)
		if at < last {
			t.Fatalf("flow %d due at %v, before flow %d at %v", n, at, n-1, last)
		}
		if at%s.Tick != 0 {
			t.Fatalf("flow %d due at %v, off the tick grid", n, at)
		}
		if in := at % s.Cycle; in > s.Cycle-s.Burst || in == 0 && at > 0 {
			inBurst++
			if s.Clear(at) {
				t.Fatalf("flow %d due at %v, in a burst, counted as clear of bursts", n, at)
			}
		} else if s.Clear(at) {
			clear++
		}
		last = at
	}
	if last > 3*s.Cycle {
		t.Fatalf("three cycles of flows end at %v", last)
	}
	if inBurst < 3*1000-60 || inBurst > 3*1000+60 {
		t.Fatalf("%d flows due inside bursts, want about 3000", inBurst)
	}
	if clear < 3*490-10 || clear > 3*490+10 {
		t.Fatalf("%d flows due clear of bursts, want about half the base stretch's 2940", clear)
	}
}
