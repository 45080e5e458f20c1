package attacks

import (
	"bytes"
	"testing"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/core"
	"spoofscope/internal/flowgen"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
	"spoofscope/internal/scenario"
)

var at0 = time.Date(2017, 2, 5, 0, 0, 0, 0, time.UTC)

func unroutedVerdict() core.Verdict {
	return core.Verdict{Class: core.ClassUnrouted, KnownMember: true}
}

func invalidVerdict() core.Verdict {
	v := core.Verdict{Class: core.ClassInvalid, KnownMember: true}
	v.Invalid[core.ApproachNaive] = true
	v.Invalid[core.ApproachCC] = true
	v.Invalid[core.ApproachFull] = true
	return v
}

func TestDetectorFlood(t *testing.T) {
	d := NewDetector()
	victim := netx.MustParseAddr("198.51.100.9")
	for i := 0; i < 100; i++ {
		d.Add(ipfix.Flow{
			Start:    at0.Add(time.Duration(i) * time.Second),
			SrcAddr:  netx.Addr(uint32(1000 + i)), // unique sources
			DstAddr:  victim,
			Protocol: ipfix.ProtoTCP,
			DstPort:  80,
			Packets:  1, Bytes: 50,
			Ingress: 7,
		}, unroutedVerdict())
	}
	floods := d.Floods()
	if len(floods) != 1 {
		t.Fatalf("floods = %d", len(floods))
	}
	f := floods[0]
	if f.Victim != victim || f.Packets != 100 || f.UniqueSources != 100 {
		t.Fatalf("flood = %+v", f)
	}
	if f.SourceRatio != 1 {
		t.Fatalf("ratio = %v", f.SourceRatio)
	}
	if f.Class != core.TCUnrouted {
		t.Fatalf("class = %v", f.Class)
	}
	if len(f.Members) != 1 || f.Members[0] != 7 {
		t.Fatalf("members = %v", f.Members)
	}
	if !f.Start.Equal(at0) || !f.End.Equal(at0.Add(99*time.Second)) {
		t.Fatalf("window = %v..%v", f.Start, f.End)
	}
}

func TestDetectorIgnoresLowRatioAndSmall(t *testing.T) {
	d := NewDetector()
	victim := netx.MustParseAddr("198.51.100.9")
	// 100 packets from ONE source: selective, not a random flood.
	for i := 0; i < 100; i++ {
		d.Add(ipfix.Flow{
			Start: at0, SrcAddr: 1, DstAddr: victim,
			Protocol: ipfix.ProtoTCP, Packets: 1, Bytes: 50, Ingress: 1,
		}, unroutedVerdict())
	}
	// 50 packets with unique sources: not above the volume threshold.
	other := netx.MustParseAddr("198.51.100.10")
	for i := 0; i < minFloodPackets; i++ {
		d.Add(ipfix.Flow{
			Start: at0, SrcAddr: netx.Addr(uint32(i)), DstAddr: other,
			Protocol: ipfix.ProtoTCP, Packets: 1, Bytes: 50, Ingress: 1,
		}, unroutedVerdict())
	}
	if floods := d.Floods(); len(floods) != 0 {
		t.Fatalf("phantom floods: %+v", floods)
	}
}

func TestDetectorValidTrafficIgnored(t *testing.T) {
	d := NewDetector()
	for i := 0; i < 100; i++ {
		d.Add(ipfix.Flow{
			Start: at0, SrcAddr: netx.Addr(uint32(i)), DstAddr: 9,
			Protocol: ipfix.ProtoTCP, Packets: 1, Bytes: 50, Ingress: 1,
		}, core.Verdict{Class: core.ClassValid, KnownMember: true})
	}
	if len(d.Floods()) != 0 || len(d.Campaigns()) != 0 {
		t.Fatal("valid traffic produced events")
	}
}

func TestDetectorAmplification(t *testing.T) {
	d := NewDetector()
	victim := netx.MustParseAddr("203.0.113.1")
	for i := 0; i < 30; i++ {
		amp := netx.Addr(uint32(0x0a000000 + i%3)) // 3 amplifiers
		d.Add(ipfix.Flow{
			Start:   at0.Add(time.Duration(i) * time.Second),
			SrcAddr: victim, DstAddr: amp,
			Protocol: ipfix.ProtoUDP, SrcPort: 4444, DstPort: 123,
			Packets: 1, Bytes: 50, Ingress: 3,
		}, invalidVerdict())
		// Amplified response for every second trigger.
		if i%2 == 0 {
			d.Add(ipfix.Flow{
				Start:   at0.Add(time.Duration(i)*time.Second + time.Millisecond),
				SrcAddr: amp, DstAddr: victim,
				Protocol: ipfix.ProtoUDP, SrcPort: 123, DstPort: 4444,
				Packets: 1, Bytes: 500, Ingress: 9,
			}, core.Verdict{Class: core.ClassValid, KnownMember: true})
		}
	}
	cs := d.Campaigns()
	if len(cs) != 1 {
		t.Fatalf("campaigns = %d", len(cs))
	}
	c := cs[0]
	if c.Victim != victim || c.Amplifiers != 3 {
		t.Fatalf("campaign = %+v", c)
	}
	if c.TriggerPackets != 30 || c.ResponsePackets != 15 {
		t.Fatalf("pkts: trig=%d resp=%d", c.TriggerPackets, c.ResponsePackets)
	}
	if c.AmplificationRatio < 4 {
		t.Fatalf("amplification = %v", c.AmplificationRatio)
	}
	if len(c.Members) != 1 || c.Members[0] != 3 {
		t.Fatalf("members = %v", c.Members)
	}
}

func TestDetectorResponsesWithoutTriggersIgnored(t *testing.T) {
	d := NewDetector()
	d.Add(ipfix.Flow{
		Start: at0, SrcAddr: 1, DstAddr: 2,
		Protocol: ipfix.ProtoUDP, SrcPort: 123, DstPort: 999,
		Packets: 1, Bytes: 500, Ingress: 1,
	}, core.Verdict{Class: core.ClassValid, KnownMember: true})
	if len(d.Campaigns()) != 0 {
		t.Fatal("response without triggers created a campaign")
	}
}

// TestDetectorEndToEnd runs the detector over a full synthetic trace and
// checks it finds the scheduled attacks.
func TestDetectorEndToEnd(t *testing.T) {
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
	var members []core.MemberInfo
	for _, m := range s.Members {
		members = append(members, core.MemberInfo{ASN: m.ASN, Port: m.Port})
	}
	p, err := core.NewPipeline(rib, members, core.Options{Orgs: s.Orgs().MultiASGroups()})
	if err != nil {
		t.Fatal(err)
	}

	fcfg := flowgen.DefaultConfig()
	fcfg.RegularPerBucket = 150
	g := flowgen.New(s, fcfg)
	d := NewDetector()
	g.Generate(func(f ipfix.Flow, _ flowgen.Label) {
		d.Add(f, p.Classify(f))
	})

	floods := d.Floods()
	if len(floods) == 0 {
		t.Fatal("no flood events detected")
	}
	// Flood victims come from the scenario's attack plan.
	planned := make(map[netx.Addr]bool)
	for _, v := range s.Attack.FloodVictims {
		planned[v] = true
	}
	for _, v := range s.Attack.SteamVictims {
		planned[v] = true
	}
	for _, f := range floods[:minInt(3, len(floods))] {
		if !planned[f.Victim] {
			t.Errorf("top flood victim %v not in the attack plan", f.Victim)
		}
	}

	cs := d.Campaigns()
	if len(cs) == 0 {
		t.Fatal("no amplification campaigns detected")
	}
	plannedNTP := make(map[netx.Addr]bool)
	for _, v := range s.Attack.NTPVictims {
		plannedNTP[v] = true
	}
	if !plannedNTP[cs[0].Victim] {
		t.Errorf("top campaign victim %v not an NTP victim", cs[0].Victim)
	}
	if cs[0].AmplificationRatio < 3 {
		t.Errorf("top campaign amplification = %v", cs[0].AmplificationRatio)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
