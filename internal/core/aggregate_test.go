package core

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"strings"
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
		{verdictOf(ClassInvalid, false, true, true), []TrafficClass{TCInvalidCC, TCInvalidFull}},
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

// TestBucketIndexMatchesSub holds the series memo to its definition: every
// index bucketIndex returns is int(t.Sub(start)/bucket). Starts with and
// without a monotonic clock reading, flow starts with and without one,
// buckets from 1 ns to 1<<62, offsets at bucket bounds and 1 ns either side,
// negative offsets, offsets ±300 years out (Sub saturates), bucket indexes
// past maxSeriesBuckets, and orders that hit the memo (a bucket asked
// again, and its neighbours) and miss it (a jump, then a jump back).
func TestBucketIndexMatchesSub(t *testing.T) {
	mono := time.Now()
	starts := []time.Time{cpStart, aggT0.Add(time.Nanosecond), time.Unix(-1e10, 999999999),
		time.Unix(1500000000, 5e8).In(time.FixedZone("", -7*3600)), mono, mono.Round(0)}
	buckets := []time.Duration{1, 999, time.Microsecond, time.Second - 1, time.Second, time.Second + 1,
		7 * time.Second / 3, time.Minute, time.Hour, 24 * time.Hour, 1 << 40, 1 << 62}
	ks := []int64{0, 1, 2, 5, 1000, maxSeriesBuckets - 1, maxSeriesBuckets, maxSeriesBuckets + 1, -1, -2, 1 << 40}
	rng := splitmix(7)
	for _, start := range starts {
		for _, bucket := range buckets {
			var ts []time.Time
			for _, k := range ks {
				if k != 0 && int64(bucket) > math.MaxInt64/max(k, -k) {
					continue // k buckets overflow a Duration
				}
				at := start.Add(time.Duration(k) * bucket)
				for _, d := range []time.Duration{0, -1, 1, bucket / 2, bucket - 1, -time.Second, time.Second} {
					ts = append(ts, at.Add(d), at.Add(d))
				}
			}
			for _, years := range []int{300, -300} {
				far := start.AddDate(years, 0, 0)
				ts = append(ts, far, far.Add(-1), far.Add(1), far)
			}
			for range 64 {
				ts = append(ts, start.Add(time.Duration(rng.next())))
				ts = append(ts, start.Add(time.Duration(rng.intn(5*int(min(bucket, 1<<50))))))
			}
			// A jump back to where the walk began, after the memo moved.
			ts = append(ts, ts[:8]...)
			a, hits := NewAggregator(start, bucket), 0
			for _, at := range ts {
				for _, tt := range []time.Time{at, at.Round(0)} {
					if _, ok := a.bucketHit(tt); ok {
						hits++
					}
					want := int(tt.Sub(start) / bucket)
					if got := a.bucketIndex(tt); got != want {
						t.Fatalf("start %v (monotonic %v), bucket %v: %v lands in bucket %d, want %d",
							start, start != start.Round(0), bucket, tt, got, want)
					}
				}
			}
			if hits == 0 && bucket >= 2*time.Second && start == start.Round(0) {
				t.Fatalf("start %v, bucket %v: no start hit the memo", start, bucket)
			}
		}
	}
}

// TestFarFutureFlowLeavesSeriesBounded: a flow whose bucket index is
// maxSeriesBuckets or more is left out of every series, as one before start
// is, so one forged start cannot grow them — 2^62 ms in hour buckets took
// 97 MB — and a series of maxSeriesBuckets buckets, the longest Add builds,
// round-trips while the decoders refuse a longer one.
func TestFarFutureFlowLeavesSeriesBounded(t *testing.T) {
	trig := aggFlow("203.0.113.1", "198.51.100.1", 1, 60)
	trig.Protocol, trig.DstPort = ipfix.ProtoUDP, 123
	resp := aggFlow("198.51.100.1", "203.0.113.1", 1, 600)
	resp.Protocol, resp.SrcPort = ipfix.ProtoUDP, 123
	invalid, valid := verdictOf(ClassInvalid, true, true, true), verdictOf(ClassValid, false, false, false)
	for _, bucket := range []time.Duration{time.Minute, time.Hour} {
		a := NewAggregator(aggT0, bucket)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, start := range []time.Time{time.UnixMilli(1 << 62), aggT0.Add(maxSeriesBuckets * bucket)} {
			trig.Start, resp.Start = start, start
			a.Add(trig, invalid)
			a.Add(resp, valid)
		}
		runtime.ReadMemStats(&after)
		for c, s := range a.Series {
			if s != nil {
				t.Fatalf("bucket %v: far-future flows made a class %d series of %d buckets", bucket, c, len(s))
			}
		}
		if a.TriggerSeries != nil || a.ResponseSeries != nil {
			t.Fatalf("bucket %v: far-future flows reached the NTP series", bucket)
		}
		if got := after.TotalAlloc - before.TotalAlloc; !raceEnabled && got > 4<<20 {
			t.Fatalf("bucket %v: four far-future flows allocated %d bytes", bucket, got)
		}
	}

	a := NewAggregator(aggT0, time.Second)
	trig.Start, resp.Start = aggT0.Add((maxSeriesBuckets-1)*time.Second), aggT0.Add((maxSeriesBuckets-1)*time.Second)
	a.Add(trig, invalid)
	a.Add(resp, valid)
	if len(a.Series[TCInvalidFull]) != maxSeriesBuckets || len(a.TriggerSeries) != maxSeriesBuckets || len(a.ResponseSeries) != maxSeriesBuckets {
		t.Fatalf("the last bucket made series of %d, %d and %d buckets, want %d",
			len(a.Series[TCInvalidFull]), len(a.TriggerSeries), len(a.ResponseSeries), maxSeriesBuckets)
	}
	if _, err := DecodeCheckpointBytes(AppendCheckpoint(nil, &Checkpoint{Agg: a})); err != nil {
		t.Fatalf("a series of maxSeriesBuckets buckets: %v", err)
	}

	long := make([]byte, 8*(maxSeriesBuckets+1))
	long[len(long)-1] = 1
	empty := AppendCheckpoint(nil, &Checkpoint{Agg: NewAggregator(cpStart, time.Hour)})
	ntp := make([]byte, counterLen*(maxSeriesBuckets+1))
	// An empty aggregate's checkpoint ends with the two NTP series' counts.
	for name, raw := range map[string][]byte{
		"series":     withSection("series", packBE(uint32(1), uint32(TCRegular), uint32(maxSeriesBuckets+1), long)),
		"NTP series": slices.Concat(empty[:len(empty)-8], packBE(uint32(maxSeriesBuckets+1), ntp), empty[len(empty)-4:]),
	} {
		_, err := DecodeCheckpointBytes(raw)
		_, oracleErr := oracleDecodeCheckpoint(bytes.NewReader(raw))
		for decoder, err := range map[string]error{"decoder": err, "oracle decoder": oracleErr} {
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("a %s of maxSeriesBuckets+1 buckets: the %s's error is %v", name, decoder, err)
			}
		}
	}
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
