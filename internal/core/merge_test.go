package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
)

// Merge's algebraic properties underpin both RunParallel (the order spilled
// shards fold in is scheduler-dependent) and checkpoint resume (a resumed run is a
// merge of restored state and replayed tail). The canonical checkpoint
// encoding is the equality oracle: two aggregators are equal iff they
// encode to identical bytes.
//
// Merge deep-adds and never adopts its argument's containers, so a merged
// shard can be Reset and refilled (the parallel consumers reuse one shard
// per worker this way); fanInCap stays unreached, as order-independence only
// holds below it.

// mergeShards builds per-shard aggregators over a fixed partition of the
// checkpoint flow set, classifies with p, and merges them in the given
// order.
func mergeShards(t *testing.T, p *Pipeline, order []int) *Aggregator {
	t.Helper()
	flows := checkpointFlows()
	bounds := [][2]int{{0, 2}, {2, 4}, {4, len(flows)}}
	shards := make([]*Aggregator, len(bounds))
	for i, b := range bounds {
		shards[i] = NewAggregator(cpStart, time.Hour)
		for _, f := range flows[b[0]:b[1]] {
			shards[i].Add(f, p.Classify(f))
		}
	}
	dst := NewAggregator(cpStart, time.Hour)
	for _, i := range order {
		dst.Merge(shards[i])
	}
	return dst
}

func TestMergeOrderIndependent(t *testing.T) {
	p := testPipeline(t, Options{})
	want := encodeAgg(t, &Checkpoint{Agg: mergeShards(t, p, []int{0, 1, 2})})
	for _, order := range [][]int{
		{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
	} {
		got := encodeAgg(t, &Checkpoint{Agg: mergeShards(t, p, order)})
		if !bytes.Equal(want, got) {
			t.Fatalf("merge order %v produced different state", order)
		}
	}
}

func TestMergeMatchesSequential(t *testing.T) {
	p := testPipeline(t, Options{})
	seq := NewAggregator(cpStart, time.Hour)
	for _, f := range checkpointFlows() {
		seq.Add(f, p.Classify(f))
	}
	want := encodeAgg(t, &Checkpoint{Agg: seq})
	got := encodeAgg(t, &Checkpoint{Agg: mergeShards(t, p, []int{0, 1, 2})})
	if !bytes.Equal(want, got) {
		t.Fatal("sharded merge diverged from sequential aggregation")
	}
}

// TestInvalidOriginsPartitionIndependent: a member's Invalid-FULL origins
// count exactly however many there are, so past the 4096 distinct origins
// that Add alone used to stop at, one sequential Add run still encodes the
// same bytes as the same flows split over two aggregators and merged —
// directly, or with one half restored from its checkpoint first.
func TestInvalidOriginsPartitionIndependent(t *testing.T) {
	const origins = 6000
	seq := NewAggregator(cpStart, time.Hour)
	halves := [2]*Aggregator{NewAggregator(cpStart, time.Hour), NewAggregator(cpStart, time.Hour)}
	for i := 0; i < origins; i++ {
		f := ipfix.Flow{Start: cpStart, SrcAddr: netx.Addr(i), DstAddr: 1 << 24,
			Protocol: ipfix.ProtoTCP, Packets: 1, Bytes: 100, Ingress: 1}
		v := Verdict{Class: ClassInvalid, KnownMember: true, SrcOrigin: bgp.ASN(origins - i),
			Invalid: [numApproaches]bool{true, true, true}}
		seq.Add(f, v)
		halves[i%2].Add(f, v)
	}
	if n := len(seq.members[1].InvalidOrigins); n != origins {
		t.Fatalf("sequential run kept %d of %d origins", n, origins)
	}
	want := encodeAgg(t, &Checkpoint{Agg: seq})

	merged := NewAggregator(cpStart, time.Hour)
	merged.Merge(halves[1])
	merged.Merge(halves[0])
	if got := encodeAgg(t, &Checkpoint{Agg: merged}); !bytes.Equal(want, got) {
		t.Fatal("merged halves encode differently from the sequential run")
	}
	cp, err := DecodeCheckpointBytes(encodeAgg(t, &Checkpoint{Agg: halves[0]}))
	if err != nil {
		t.Fatal(err)
	}
	cp.Agg.Merge(halves[1])
	if got := encodeAgg(t, &Checkpoint{Agg: cp.Agg}); !bytes.Equal(want, got) {
		t.Fatal("a restored half merged with the other encodes differently from the sequential run")
	}
}

func TestMergeEmptyIsIdentity(t *testing.T) {
	p := testPipeline(t, Options{})

	// a.Merge(empty) leaves a unchanged.
	a := mergeShards(t, p, []int{0, 1, 2})
	want := encodeAgg(t, &Checkpoint{Agg: a})
	a.Merge(NewAggregator(cpStart, time.Hour))
	if got := encodeAgg(t, &Checkpoint{Agg: a}); !bytes.Equal(want, got) {
		t.Fatal("merging an empty aggregator changed the state")
	}

	// empty.Merge(a) equals a.
	empty := NewAggregator(cpStart, time.Hour)
	empty.Merge(mergeShards(t, p, []int{0, 1, 2}))
	if got := encodeAgg(t, &Checkpoint{Agg: empty}); !bytes.Equal(want, got) {
		t.Fatal("merging into an empty aggregator diverged from the source")
	}
}

// spillEpisode synthesises one contended stretch's worth of flows with
// synthesised verdicts (no pipeline). Episode k shares nothing with the
// others: its members (and the ASN back-filled on the first of them), its
// invalid origins, its destinations — one per spoofed class with a single
// source and one with three — its NTP victim and amplifier, and its series
// bucket are all its own, and it leaves out the class k%3 of Bogon, Unrouted
// and Invalid, so successive episodes do not even share their classes.
// Bucket indexes fall as k rises, so a recycled series array is always longer
// than the series it is reused for.
func spillEpisode(k int) (flows []ipfix.Flow, verdicts []Verdict, firstPort uint32) {
	firstPort = uint32(1000 * (k + 1))
	addr := func(i int) netx.Addr { return netx.Addr(uint32(k+1)<<24 | uint32(i)) }
	add := func(port int, src, dst netx.Addr, proto uint8, sp, dp uint16, v Verdict) {
		flows = append(flows, ipfix.Flow{
			Start:   cpStart.Add(time.Duration(9-k) * time.Hour),
			SrcAddr: src, DstAddr: dst, SrcPort: sp, DstPort: dp, Protocol: proto,
			Packets: uint64(2 + k), Bytes: uint64(2+k) * 100,
			Ingress: firstPort + uint32(port),
		})
		verdicts = append(verdicts, v)
	}
	invalid := Verdict{Class: ClassInvalid, KnownMember: true, RouterIP: true,
		SrcOrigin: bgp.ASN(64500 + 10*k), Invalid: [numApproaches]bool{true, true, true}}
	spoofed := []Verdict{
		{Class: ClassBogon, KnownMember: true},
		{Class: ClassUnrouted, KnownMember: true},
		invalid,
	}
	for c, v := range spoofed {
		if c == k%3 {
			continue
		}
		add(c, addr(1), addr(100+c), ipfix.ProtoTCP, 4000, 80, v) // single-source destination
		for src := 2; src < 5; src++ {                            // three-source destination
			add(c, addr(src), addr(200+c), ipfix.ProtoTCP, 4000, 443, v)
		}
	}
	if k%3 != 2 {
		// NTP trigger: the spoofed source is the victim. A second origin too.
		add(2, addr(50), addr(60), ipfix.ProtoUDP, 5000, 123, invalid)
		invalid.SrcOrigin++
		add(2, addr(50), addr(61), ipfix.ProtoUDP, 5000, 123, invalid)
	}
	valid := Verdict{Class: ClassValid, KnownMember: k%2 == 0, SrcOrigin: 64500}
	add(3, addr(60), addr(50), ipfix.ProtoUDP, 123, 6000, valid) // NTP response
	add(3, addr(7), addr(8), ipfix.ProtoICMP, 0, 0, valid)
	return flows, verdicts, firstPort
}

// TestMergeResetReuse is the contract the parallel consumers rely on: a
// shard that has been merged, Reset, and refilled behaves exactly like a
// fresh one. Reset recycles the shard's inner nodes, so the episodes are
// disjoint in every key (see spillEpisode): a node that came back with a
// stale field — an ASN, an origin, an inline source, a series tail — or a
// top-level key that survived its Reset would show in the canonical encoding,
// which must be byte-identical to fresh shards' at every step.
func TestMergeResetReuse(t *testing.T) {
	p := testPipeline(t, Options{})
	type episode struct {
		flows    []ipfix.Flow
		verdicts []Verdict
		asnPort  uint32 // member to back-fill an ASN on
	}
	// The pipeline-classified fixture in two halves, then the synthesised
	// disjoint episodes.
	var episodes []episode
	fixture := checkpointFlows()
	for _, half := range [][2]int{{0, 3}, {3, len(fixture)}} {
		e := episode{flows: fixture[half[0]:half[1]]}
		for _, f := range e.flows {
			e.verdicts = append(e.verdicts, p.Classify(f))
		}
		episodes = append(episodes, e)
	}
	for k := 0; k < 4; k++ {
		flows, verdicts, port := spillEpisode(k)
		episodes = append(episodes, episode{flows, verdicts, port})
	}
	fill := func(shard *Aggregator, e episode) {
		shard.AddBatch(e.flows, e.verdicts)
		shard.SetMemberASN(e.asnPort, bgp.ASN(e.asnPort))
	}
	empty := encodeAgg(t, &Checkpoint{Agg: NewAggregator(cpStart, time.Hour)})

	// ref folds a fresh shard per episode; dst folds ONE shard, Reset between
	// episodes.
	ref, dst := NewAggregator(cpStart, time.Hour), NewAggregator(cpStart, time.Hour)
	shard := NewAggregator(cpStart, time.Hour)
	for i, e := range episodes {
		fresh := NewAggregator(cpStart, time.Hour)
		fill(fresh, e)
		fill(shard, e)
		if !bytes.Equal(encodeAgg(t, &Checkpoint{Agg: shard}), encodeAgg(t, &Checkpoint{Agg: fresh})) {
			t.Fatalf("episode %d: recycled shard diverged from a fresh one", i)
		}
		ref.Merge(fresh)
		dst.Merge(shard)
		shard.Reset()
		if !bytes.Equal(encodeAgg(t, &Checkpoint{Agg: shard}), empty) {
			t.Fatalf("episode %d: a Reset shard does not encode as an empty aggregator", i)
		}
		if !bytes.Equal(encodeAgg(t, &Checkpoint{Agg: dst}), encodeAgg(t, &Checkpoint{Agg: ref})) {
			t.Fatalf("episode %d: reused shard diverged from fresh shards", i)
		}
	}
	want := encodeAgg(t, &Checkpoint{Agg: ref})

	// A Reset shard merged again must be a no-op (no phantom keys).
	dst.Merge(shard)
	if got := encodeAgg(t, &Checkpoint{Agg: dst}); !bytes.Equal(want, got) {
		t.Fatal("merging a Reset shard changed the state")
	}
	// Recycled nodes come back zero: a destination's inline source and source
	// set in particular, which SrcCount/EachSrc branch on; a member
	// keeps only its emptied origin map.
	for _, slab := range shard.nodes.dsts.all {
		for i := range slab {
			if !reflect.DeepEqual(slab[i], DstStats{}) {
				t.Fatalf("recycled destination is not the zero value: %+v", slab[i])
			}
		}
	}
	for _, slab := range shard.nodes.members.all {
		for _, ms := range slab {
			origins := ms.InvalidOrigins
			if ms.InvalidOrigins = nil; len(origins) != 0 || !reflect.DeepEqual(ms, MemberStats{}) {
				t.Fatalf("recycled member carries state: %+v (%d origins)", ms, len(origins))
			}
		}
	}
}

// TestSpillCycleAllocatesNothing pins what a contended drain costs the
// collector: once a spill shard has seen its keys, the whole episode — refill
// the recycled shard, Merge it into the canonical aggregate, Reset it —
// allocates nothing. The trace is the attack shape, which exercises every
// node kind (members and origins, single- and multi-source destinations,
// /8 bins, series, NTP pairs, jumbo sizes).
func TestSpillCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	flows, verdicts := shapedTrace(true, 4*ClassifyBatchSize, 7)
	canonical, shard := NewAggregator(cpStart, time.Hour), NewAggregator(cpStart, time.Hour)
	cycle := func() {
		shard.AddBatch(flows, verdicts)
		canonical.Merge(shard)
		shard.Reset()
	}
	// Warm-up: first touch of every key and slab. AllocsPerRun's own unmeasured
	// first call is a second lap, which the canonical side needs: Go grows a
	// full 8-entry map on its next assignment even to a key it already holds.
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("a spill episode over known keys allocates %.1f times, want 0", allocs)
	}
}
