package core

import (
	"bytes"
	"cmp"
	"runtime"
	"testing"
	"time"

	"spoofscope/internal/ipfix"
)

// portOp is one port-mix add.
type portOp struct {
	k    PortKey
	pkts uint64
}

// portOps draws about n adds over keys crowded into a few 256-port blocks
// (the last port included), so cells are hit again and again. Packet counts
// sit at the carry's edges: 0, 1, 0xFFFF, 0x10000, 1<<32 and 2^64-1 (the
// tallies wrap as uint64 counters do), runs of adds on one key that cross
// 0xFFFF, and small sampled counts.
func portOps(rng *splitmix, n int) []portOp {
	classes := [...]TrafficClass{TCRegular, TCBogon, TCUnrouted, TCInvalidFull}
	edges := [...]uint64{0, 1, 0xFFFF, 0x10000, 1 << 32, ^uint64(0)}
	ops := make([]portOp, 0, n+8)
	for len(ops) < n {
		port := uint16(rng.intn(4)<<14 | rng.intn(600))
		if rng.intn(8) == 0 {
			port = uint16(0xFFFF - rng.intn(64))
		}
		k := PortKey{classes[rng.intn(len(classes))], portProtos[rng.intn(2)], uint8(rng.intn(2)), port}
		switch rng.intn(4) {
		case 0:
			ops = append(ops, portOp{k, edges[rng.intn(len(edges))]})
		case 1:
			for range 2 + rng.intn(4) {
				ops = append(ops, portOp{k, uint64(0x5000 + rng.intn(0x1000))})
			}
		default:
			ops = append(ops, portOp{k, uint64(1 + rng.intn(20))})
		}
	}
	return ops
}

// addPortOps adds ops to a's port mix and to the map oracle want.
func addPortOps(a *Aggregator, want map[PortKey]uint64, ops []portOp) {
	for _, op := range ops {
		a.Ports.pair(op.k.Class, protoIdx(op.k.Proto))[op.k.Dir].add(op.k.Port, op.pkts)
		want[op.k] += op.pkts
	}
}

func comparePortKeys(a, b PortKey) int {
	return cmp.Or(cmp.Compare(a.Class, b.Class), cmp.Compare(a.Proto, b.Proto),
		cmp.Compare(a.Dir, b.Dir), cmp.Compare(a.Port, b.Port))
}

// requirePortMix fails t unless a's port mix holds exactly want: Len, Range's
// keys in ascending order with want's tallies, and checkpoint bytes equal to
// the oracle encoder's.
func requirePortMix(t *testing.T, stage string, a *Aggregator, want map[PortKey]uint64) {
	t.Helper()
	if a.Ports.Len() != len(want) {
		t.Fatalf("%s: %d keys, want %d", stage, a.Ports.Len(), len(want))
	}
	seen, last := 0, PortKey{}
	a.Ports.Range(func(k PortKey, v uint64) {
		if seen > 0 && comparePortKeys(last, k) >= 0 {
			t.Fatalf("%s: Range visits %+v after %+v", stage, k, last)
		}
		if w, ok := want[k]; !ok || v != w {
			t.Fatalf("%s: %+v tallies %d, want %d (recorded: %v)", stage, k, v, w, ok)
		}
		seen, last = seen+1, k
	})
	if seen != len(want) {
		t.Fatalf("%s: Range visits %d keys, want %d", stage, seen, len(want))
	}
	cp := &Checkpoint{Agg: a}
	var oracle bytes.Buffer
	if err := oracleEncodeCheckpoint(&oracle, cp); err != nil {
		t.Fatal(err)
	}
	if got := AppendCheckpoint(nil, cp); !bytes.Equal(got, oracle.Bytes()) {
		t.Fatalf("%s: checkpoint differs from the oracle encoder's at byte %d of %d", stage, firstDiff(got, oracle.Bytes()), oracle.Len())
	}
}

// TestPortTabMatchesMapOracle drives the 16-bit cells and their carries
// through every path that writes them — Add, MergeFrom (onto held keys and
// into a fresh table), MergeCheckpointBytes, a decode, and Reset followed by
// a refill — and holds each result to a map[PortKey]uint64 fed the same
// adds.
func TestPortTabMatchesMapOracle(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		rng := splitmix(seed)
		a, b := NewAggregator(cpStart, time.Hour), NewAggregator(cpStart, time.Hour)
		wantA, wantB := map[PortKey]uint64{}, map[PortKey]uint64{}
		addPortOps(a, wantA, portOps(&rng, 1500))
		requirePortMix(t, "Add", a, wantA)
		addPortOps(b, wantB, portOps(&rng, 1500))

		a.Ports.MergeFrom(b.Ports)
		for k, v := range wantB {
			wantA[k] += v
		}
		requirePortMix(t, "MergeFrom", a, wantA)
		fresh := NewAggregator(cpStart, time.Hour)
		fresh.Ports.MergeFrom(a.Ports)
		requirePortMix(t, "MergeFrom into a fresh table", fresh, wantA)

		raw := AppendCheckpoint(nil, &Checkpoint{Agg: b})
		if _, err := MergeCheckpointBytes(a, raw); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for k, v := range wantB {
			wantA[k] += v
		}
		requirePortMix(t, "MergeCheckpointBytes", a, wantA)
		decoded, err := DecodeCheckpointBytes(raw)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requirePortMix(t, "DecodeCheckpointBytes", decoded.Agg, wantB)

		// Reset keeps the cell and carry blocks; a refill must see none of
		// the old tallies, carried or not.
		a.Ports.Reset()
		requirePortMix(t, "Reset", a, map[PortKey]uint64{})
		refill := map[PortKey]uint64{}
		addPortOps(a, refill, portOps(&rng, 1500))
		requirePortMix(t, "Reset and refill", a, refill)
		fresh.Ports.Reset()
		fresh.Ports.MergeFrom(a.Ports)
		requirePortMix(t, "MergeFrom after Reset", fresh, refill)
	}
}

// sizeOp is one packet-size histogram add.
type sizeOp struct {
	class TrafficClass
	size  int
	pkts  uint64
}

// sizeOps draws about n adds the way portOps does, over sizes at the edges
// of the dense page and its blocks — negative, 0, 255, 256, 4095, 4096,
// 9000 (a jumbo frame), 65535, and the spilled 65536 and 1<<20 — and over
// typical packet sizes, with portOps' tallies.
func sizeOps(rng *splitmix, n int) []sizeOp {
	classes := [...]TrafficClass{TCRegular, TCBogon, TCUnrouted, TCInvalidFull}
	edges := [...]uint64{0, 1, 0xFFFF, 0x10000, 1 << 32, ^uint64(0)}
	sizes := [...]int{-1, 0, 255, 256, 4095, 4096, 9000, 65535, 65536, 1 << 20}
	ops := make([]sizeOp, 0, n+8)
	for len(ops) < n {
		op := sizeOp{class: classes[rng.intn(len(classes))], size: 40 + rng.intn(1461)}
		if rng.intn(4) == 0 {
			op.size = sizes[rng.intn(len(sizes))]
		}
		switch rng.intn(4) {
		case 0:
			op.pkts = edges[rng.intn(len(edges))]
			ops = append(ops, op)
		case 1:
			for range 2 + rng.intn(4) {
				op.pkts = uint64(0x5000 + rng.intn(0x1000))
				ops = append(ops, op)
			}
		default:
			op.pkts = uint64(1 + rng.intn(20))
			ops = append(ops, op)
		}
	}
	return ops
}

// addSizeOps adds ops to a's size histogram and to the map oracle want.
func addSizeOps(a *Aggregator, want map[TrafficClass]map[int]uint64, ops []sizeOp) {
	for _, op := range ops {
		a.SizeHist.page(op.class).add(op.size, op.pkts)
		if want[op.class] == nil {
			want[op.class] = map[int]uint64{}
		}
		want[op.class][op.size] += op.pkts
	}
}

// mergeSizeOracle adds src's tallies into dst.
func mergeSizeOracle(dst, src map[TrafficClass]map[int]uint64) {
	for c, hist := range src {
		if dst[c] == nil {
			dst[c] = map[int]uint64{}
		}
		for size, v := range hist {
			dst[c][size] += v
		}
	}
}

// requireSizeHist fails t unless a's size histogram holds exactly want: the
// classes present, each class's length, RangeClass's sizes in ascending
// order with want's tallies, and checkpoint bytes equal to the oracle
// encoder's.
func requireSizeHist(t *testing.T, stage string, a *Aggregator, want map[TrafficClass]map[int]uint64) {
	t.Helper()
	for c := range numTrafficClasses {
		if a.SizeHist.ClassLen(c) != len(want[c]) {
			t.Fatalf("%s: class %d has %d sizes, want %d", stage, c, a.SizeHist.ClassLen(c), len(want[c]))
		}
		seen, last := 0, 0
		a.SizeHist.RangeClass(c, func(size int, v uint64) {
			if seen > 0 && last >= size {
				t.Fatalf("%s: class %d: RangeClass visits size %d after %d", stage, c, size, last)
			}
			if w, ok := want[c][size]; !ok || v != w {
				t.Fatalf("%s: class %d size %d tallies %d, want %d (recorded: %v)", stage, c, size, v, w, ok)
			}
			seen, last = seen+1, size
		})
		if seen != len(want[c]) {
			t.Fatalf("%s: class %d: RangeClass visits %d sizes, want %d", stage, c, seen, len(want[c]))
		}
	}
	cp := &Checkpoint{Agg: a}
	var oracle bytes.Buffer
	if err := oracleEncodeCheckpoint(&oracle, cp); err != nil {
		t.Fatal(err)
	}
	if got := AppendCheckpoint(nil, cp); !bytes.Equal(got, oracle.Bytes()) {
		t.Fatalf("%s: checkpoint differs from the oracle encoder's at byte %d of %d", stage, firstDiff(got, oracle.Bytes()), oracle.Len())
	}
}

// TestSizeTabMatchesMapOracle is TestPortTabMatchesMapOracle for the
// packet-size histogram: its dense page's cells and carries, and the spill
// map beside them, through Add, MergeFrom, MergeCheckpointBytes, a decode
// and Reset, each held to a map[TrafficClass]map[int]uint64 fed the same
// adds.
func TestSizeTabMatchesMapOracle(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		rng := splitmix(seed)
		a, b := NewAggregator(cpStart, time.Hour), NewAggregator(cpStart, time.Hour)
		wantA, wantB := map[TrafficClass]map[int]uint64{}, map[TrafficClass]map[int]uint64{}
		addSizeOps(a, wantA, sizeOps(&rng, 1500))
		requireSizeHist(t, "Add", a, wantA)
		addSizeOps(b, wantB, sizeOps(&rng, 1500))

		a.SizeHist.MergeFrom(b.SizeHist)
		mergeSizeOracle(wantA, wantB)
		requireSizeHist(t, "MergeFrom", a, wantA)
		fresh := NewAggregator(cpStart, time.Hour)
		fresh.SizeHist.MergeFrom(a.SizeHist)
		requireSizeHist(t, "MergeFrom into a fresh table", fresh, wantA)

		raw := AppendCheckpoint(nil, &Checkpoint{Agg: b})
		if _, err := MergeCheckpointBytes(a, raw); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mergeSizeOracle(wantA, wantB)
		requireSizeHist(t, "MergeCheckpointBytes", a, wantA)
		decoded, err := DecodeCheckpointBytes(raw)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requireSizeHist(t, "DecodeCheckpointBytes", decoded.Agg, wantB)

		a.SizeHist.Reset()
		requireSizeHist(t, "Reset", a, nil)
		refill := map[TrafficClass]map[int]uint64{}
		addSizeOps(a, refill, sizeOps(&rng, 1500))
		requireSizeHist(t, "Reset and refill", a, refill)
		fresh.SizeHist.Reset()
		fresh.SizeHist.MergeFrom(a.SizeHist)
		requireSizeHist(t, "MergeFrom after Reset", fresh, refill)
	}
}

// talliedTrace draws about n flows whose port and size adds sit where the
// pages' inlined fast path hands over to addSlow: zero-packet flows; runs of
// adds on one flow's keys that cross 0xFFFF, followed by small adds into the
// cell the carry emptied; a tally of 2^64-1 followed by 1 (the sum wraps to
// 0); sizes at the blocks' edges, in the last block, at 65536 and beyond, and
// Bytes/Packets quotients past the int range (the spill map's negative
// keys); ports in the last block; and portless flows. Verdicts cover every
// primary class, an Invalid-NAIVE-only flow counting as Regular.
func talliedTrace(rng *splitmix, n int) ([]ipfix.Flow, []Verdict) {
	verdicts := [...]Verdict{
		{Class: ClassValid, KnownMember: true},
		{Class: ClassBogon, KnownMember: true},
		{Class: ClassUnrouted},
		{Class: ClassInvalid, Invalid: [numApproaches]bool{true, true, true}, KnownMember: true},
		{Class: ClassInvalid, Invalid: [numApproaches]bool{true, false, false}, KnownMember: true},
	}
	edges := [...]uint64{0, 1, 0xFFFF, 0x10000, 1 << 32, ^uint64(0)}
	sizes := [...]uint64{0, 255, 256, 4096, 9000, 0xFF00, 0xFFFF, 1 << 16, 1 << 20}
	wideBytes := [...]uint64{1 << 63, ^uint64(0), 1<<63 + 1<<40}
	port := func() uint16 {
		if rng.intn(8) == 0 {
			return uint16(0xFFFF - rng.intn(64))
		}
		return uint16(rng.intn(4)<<14 | rng.intn(600))
	}
	var flows []ipfix.Flow
	var vs []Verdict
	add := func(f ipfix.Flow, v Verdict, pkts ...uint64) {
		size := f.Bytes
		for _, p := range pkts {
			f.Packets, f.Bytes = p, size*p
			if size > 1<<20 {
				f.Bytes = size // a quotient past the int range, whatever the count
			}
			flows, vs = append(flows, f), append(vs, v)
		}
	}
	for len(flows) < n {
		f := ipfix.Flow{Start: cpStart, Ingress: uint32(1 + rng.intn(4)), Protocol: ipfix.ProtoTCP,
			SrcPort: port(), DstPort: port(), Bytes: uint64(40 + rng.intn(1461))}
		switch rng.intn(8) {
		case 0:
			f.Protocol = ipfix.ProtoICMP
		case 1, 2, 3:
			f.Protocol = ipfix.ProtoUDP
		}
		switch rng.intn(6) {
		case 0:
			f.Bytes = sizes[rng.intn(len(sizes))]
		case 1:
			f.Bytes = wideBytes[rng.intn(len(wideBytes))]
		}
		v := verdicts[rng.intn(len(verdicts))]
		switch rng.intn(5) {
		case 0:
			add(f, v, edges[rng.intn(len(edges))])
		case 1:
			runs := make([]uint64, 2+rng.intn(4), 8)
			for i := range runs {
				runs[i] = uint64(0x5000 + rng.intn(0x1000))
			}
			for range 1 + rng.intn(3) {
				runs = append(runs, uint64(rng.intn(20)))
			}
			add(f, v, runs...)
		case 2:
			add(f, v, ^uint64(0), 1, uint64(1+rng.intn(20)))
		default:
			add(f, v, uint64(rng.intn(21)))
		}
	}
	return flows, vs
}

// tallyOracle adds what Aggregator.Add records of flows in the port mix and
// the size histogram to the map oracles ports and sizes.
func tallyOracle(ports map[PortKey]uint64, sizes map[TrafficClass]map[int]uint64, flows []ipfix.Flow, vs []Verdict) {
	for i, f := range flows {
		pc := primaryClass(vs[i])
		if f.Protocol == ipfix.ProtoTCP || f.Protocol == ipfix.ProtoUDP {
			ports[PortKey{pc, f.Protocol, 0, f.DstPort}] += f.Packets
			ports[PortKey{pc, f.Protocol, 1, f.SrcPort}] += f.Packets
		}
		if f.Packets > 0 {
			if sizes[pc] == nil {
				sizes[pc] = map[int]uint64{}
			}
			sizes[pc][int(f.Bytes/f.Packets)] += f.Packets
		}
	}
}

// TestAggregatorTalliesMatchOracle drives the port mix and the size
// histogram through Aggregator.Add itself — the pages' inlined fast path and
// its hand-over to addSlow, as production runs them — and holds each result
// to map oracles fed the same flows and to the oracle encoder's bytes: after
// the adds, after folding a second aggregate in by Merge and by
// MergeCheckpointBytes, after a decode, and after Reset and a refill.
func TestAggregatorTalliesMatchOracle(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		rng := splitmix(seed)
		a, b := NewAggregator(cpStart, time.Hour), NewAggregator(cpStart, time.Hour)
		portsA, sizesA := map[PortKey]uint64{}, map[TrafficClass]map[int]uint64{}
		portsB, sizesB := map[PortKey]uint64{}, map[TrafficClass]map[int]uint64{}
		flows, vs := talliedTrace(&rng, 1500)
		a.AddBatch(flows, vs)
		tallyOracle(portsA, sizesA, flows, vs)
		requirePortMix(t, "Add", a, portsA)
		requireSizeHist(t, "Add", a, sizesA)
		flows, vs = talliedTrace(&rng, 1500)
		b.AddBatch(flows, vs)
		tallyOracle(portsB, sizesB, flows, vs)

		a.Merge(b)
		tallyOracle(portsA, sizesA, flows, vs)
		requirePortMix(t, "Merge", a, portsA)
		requireSizeHist(t, "Merge", a, sizesA)
		raw := AppendCheckpoint(nil, &Checkpoint{Agg: b})
		if _, err := MergeCheckpointBytes(a, raw); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tallyOracle(portsA, sizesA, flows, vs)
		requirePortMix(t, "MergeCheckpointBytes", a, portsA)
		requireSizeHist(t, "MergeCheckpointBytes", a, sizesA)
		decoded, err := DecodeCheckpointBytes(raw)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requirePortMix(t, "DecodeCheckpointBytes", decoded.Agg, portsB)
		requireSizeHist(t, "DecodeCheckpointBytes", decoded.Agg, sizesB)

		// Reset keeps every cell and carry block: the refill's adds meet
		// zero cells in allocated blocks, which the fast path must decline.
		a.Reset()
		portsA, sizesA = map[PortKey]uint64{}, map[TrafficClass]map[int]uint64{}
		flows, vs = talliedTrace(&rng, 1500)
		a.AddBatch(flows, vs)
		tallyOracle(portsA, sizesA, flows, vs)
		requirePortMix(t, "Reset and refill", a, portsA)
		requireSizeHist(t, "Reset and refill", a, sizesA)
	}
}

// retainedBy reports the heap bytes still in use, after a collection, by
// what build returns, against a collection before it.
func retainedBy[T any](build func() T) (T, uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return v, after.HeapAlloc - min(after.HeapAlloc, before.HeapAlloc)
}

// TestMixedAggregateRetainsLinear holds what a typical-mix aggregate keeps
// on the heap to a budget linear in what it records: 16 KiB per dense page,
// port or size (its presence bitmaps and block tables), 768 B per touched
// 256-key block (512 B of 16-bit cells, and room for the carries), 96 B per
// recorded entry outside the dense pages and 256 B per container outside
// them. uint64 counters
// take 2 KiB per touched block on their own, and the mix's ephemeral source
// ports touch most blocks of every busy page: with them this aggregate
// retained 4.3 MB at 50,000 flows, against a 2.7 MB budget.
func TestMixedAggregateRetainsLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, n := range []int{50000, 200000} {
		a, retained := retainedBy(func() *Aggregator { return shapedAggregate(false, n, 7) })
		cs, es := containers(a)
		pages, blocks := 0, 0
		densePages(a, func(p *portPage) {
			pages++
			cs -= pageContainers(p) // the page and its blocks, budgeted below
			es -= p.n
			for w := 0; w < len(p.seen); w += 4 {
				if p.seen[w]|p.seen[w+1]|p.seen[w+2]|p.seen[w+3] != 0 {
					blocks++
				}
			}
		})
		budget := uint64(64<<10 + 16<<10*pages + 768*blocks + 96*es + 256*cs)
		t.Logf("n=%d: %.2f MB retained, budget %.2f MB (%d dense pages, %d touched blocks, %d other entries, %d other containers)",
			n, float64(retained)/1e6, float64(budget)/1e6, pages, blocks, es, cs)
		if retained > budget {
			t.Fatalf("n=%d: a mixed aggregate retains %d bytes, budget %d", n, retained, budget)
		}
		runtime.KeepAlive(a)
	}
}
