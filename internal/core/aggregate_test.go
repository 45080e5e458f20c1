package core

import (
	"slices"
	"testing"
	"time"

	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
)

var aggT0 = time.Date(2017, 2, 5, 0, 0, 0, 0, time.UTC)

func verdictOf(class Class, naive, cc, full bool) Verdict {
	v := Verdict{Class: class, KnownMember: true}
	v.Invalid[ApproachNaive] = naive
	v.Invalid[ApproachCC] = cc
	v.Invalid[ApproachFull] = full
	return v
}

func aggFlow(src, dst string, pkts, bytes uint64) ipfix.Flow {
	return ipfix.Flow{
		Start:    aggT0.Add(30 * time.Minute),
		SrcAddr:  netx.MustParseAddr(src),
		DstAddr:  netx.MustParseAddr(dst),
		Protocol: ipfix.ProtoTCP,
		SrcPort:  1234, DstPort: 80,
		Packets: pkts, Bytes: bytes,
		Ingress: 1,
	}
}

func TestClassesOf(t *testing.T) {
	cases := []struct {
		v    Verdict
		want []TrafficClass
	}{
		{verdictOf(ClassBogon, false, false, false), []TrafficClass{TCBogon}},
		{verdictOf(ClassUnrouted, false, false, false), []TrafficClass{TCUnrouted}},
		{verdictOf(ClassValid, false, false, false), []TrafficClass{TCRegular}},
		{verdictOf(ClassInvalid, true, true, true),
			[]TrafficClass{TCInvalidNaive, TCInvalidCC, TCInvalidFull}},
		{verdictOf(ClassInvalid, true, false, false), []TrafficClass{TCInvalidNaive}},
	}
	for i, c := range cases {
		var buf [3]TrafficClass
		got := buf[:classesInto(c.v, &buf)]
		if !slices.Equal(got, c.want) {
			t.Fatalf("case %d: classesInto = %v want %v", i, got, c.want)
		}
	}
}

func TestPrimaryClass(t *testing.T) {
	if primaryClass(verdictOf(ClassBogon, false, false, false)) != TCBogon {
		t.Error("bogon primary")
	}
	if primaryClass(verdictOf(ClassInvalid, true, true, true)) != TCInvalidFull {
		t.Error("full-invalid primary")
	}
	// Invalid only under naive/cc counts as regular in the FULL view.
	if primaryClass(verdictOf(ClassInvalid, true, true, false)) != TCRegular {
		t.Error("naive-only invalid must be regular under FULL")
	}
}

func TestAggregatorNaiveOnlyInvalidCountsRegularOnce(t *testing.T) {
	a := NewAggregator(aggT0, time.Hour)
	a.Add(aggFlow("10.0.0.1", "10.0.0.2", 3, 300), verdictOf(ClassInvalid, true, false, false))
	if a.Total[TCRegular].Packets != 3 {
		t.Fatalf("regular pkts = %d", a.Total[TCRegular].Packets)
	}
	if a.Total[TCInvalidNaive].Packets != 3 {
		t.Fatalf("naive pkts = %d", a.Total[TCInvalidNaive].Packets)
	}
	if a.GrandTotal.Packets != 3 {
		t.Fatalf("grand total = %d (double counted?)", a.GrandTotal.Packets)
	}
}

func TestAggregatorValidNotDoubleCounted(t *testing.T) {
	a := NewAggregator(aggT0, time.Hour)
	a.Add(aggFlow("10.0.0.1", "10.0.0.2", 2, 200), verdictOf(ClassValid, false, false, false))
	if a.Total[TCRegular].Packets != 2 {
		t.Fatalf("regular pkts = %d", a.Total[TCRegular].Packets)
	}
}

func TestAggregatorUnknownPorts(t *testing.T) {
	a := NewAggregator(aggT0, time.Hour)
	v := verdictOf(ClassValid, false, false, false)
	v.KnownMember = false
	a.Add(aggFlow("10.0.0.1", "10.0.0.2", 1, 100), v)
	if a.UnknownPorts != 1 {
		t.Fatalf("UnknownPorts = %d", a.UnknownPorts)
	}
}

func TestAggregatorSeriesBucketing(t *testing.T) {
	a := NewAggregator(aggT0, time.Hour)
	f := aggFlow("10.0.0.1", "10.0.0.2", 1, 100)
	f.Start = aggT0.Add(150 * time.Minute) // bucket 2
	a.Add(f, verdictOf(ClassValid, false, false, false))
	s := a.Series[TCRegular]
	if len(s) != 3 || s[2] != 1 {
		t.Fatalf("series = %v", s)
	}
	// Flows before the start are ignored by the series, not a panic.
	f.Start = aggT0.Add(-time.Hour)
	a.Add(f, verdictOf(ClassValid, false, false, false))
}

func TestAggregatorRouterAndOrigins(t *testing.T) {
	a := NewAggregator(aggT0, time.Hour)
	v := verdictOf(ClassInvalid, true, true, true)
	v.RouterIP = true
	v.SrcOrigin = 65001
	a.Add(aggFlow("10.0.0.1", "10.0.0.2", 4, 400), v)
	m := a.members[1]
	if m == nil || m.RouterIPInvalid != 4 {
		t.Fatalf("router invalid = %+v", m)
	}
	if m.InvalidOrigins[65001] != 4 {
		t.Fatalf("origins = %v", m.InvalidOrigins)
	}
}

func TestAggregatorFanInOverflow(t *testing.T) {
	a := NewAggregator(aggT0, time.Hour)
	dst := "198.51.100.9"
	for i := 0; i < 10; i++ {
		f := aggFlow("10.0.0.1", dst, 1, 100)
		f.SrcAddr = netx.Addr(uint32(i))
		a.Add(f, verdictOf(ClassUnrouted, false, false, false))
	}
	ds := a.FanIn[TCUnrouted][netx.MustParseAddr(dst)]
	if ds == nil || ds.Packets != 10 || ds.SrcCount() != 10 {
		t.Fatalf("fan-in = %+v", ds)
	}
}

func TestContributingMembers(t *testing.T) {
	a := NewAggregator(aggT0, time.Hour)
	f := aggFlow("10.0.0.1", "10.0.0.2", 1, 100)
	a.Add(f, verdictOf(ClassBogon, false, false, false))
	f.Ingress = 2
	a.Add(f, verdictOf(ClassValid, false, false, false))
	if got := a.ContributingMembers(TCBogon); got != 1 {
		t.Fatalf("bogon members = %d", got)
	}
	if got := a.ContributingMembers(TCUnrouted); got != 0 {
		t.Fatalf("unrouted members = %d", got)
	}
	a.SetMemberASN(1, 65001)
	if a.members[1].ASN != 65001 {
		t.Fatal("SetMemberASN lost")
	}
	a.SetMemberASN(99, 1) // unknown port: no-op, no panic
}

func TestAggregatorNTPBookkeeping(t *testing.T) {
	a := NewAggregator(aggT0, time.Hour)
	trig := aggFlow("203.0.113.1", "198.51.100.1", 1, 60)
	trig.Protocol = ipfix.ProtoUDP
	trig.DstPort = 123
	a.Add(trig, verdictOf(ClassInvalid, true, true, true))
	resp := aggFlow("198.51.100.1", "203.0.113.1", 1, 600)
	resp.Protocol = ipfix.ProtoUDP
	resp.SrcPort = 123
	resp.DstPort = 999
	a.Add(resp, verdictOf(ClassValid, false, false, false))

	if a.TriggerPairs[trig.SrcAddr][trig.DstAddr] != 1 {
		t.Fatal("trigger pair missing")
	}
	if a.ResponsePairs[resp.SrcAddr][resp.DstAddr] != 1 {
		t.Fatal("response pair missing")
	}
	if len(a.TriggerSeries) == 0 || a.TriggerSeries[0].Packets != 1 {
		t.Fatal("trigger series missing")
	}
}
