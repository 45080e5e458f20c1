package core

import (
	"bytes"
	"cmp"
	"runtime"
	"testing"
	"time"
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
		a.Ports.Add(op.k.Class, op.k.Proto, op.k.Dir, op.k.Port, op.pkts)
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
// on the heap to a budget linear in what it records: 16 KiB per port page
// (its presence bitmaps and block tables), 768 B per touched 256-port block
// (512 B of 16-bit cells, and room for the carries), 96 B per recorded entry
// outside the port mix and 256 B per container outside it. uint64 counters
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
		a.Ports.pages(func(_ portPageKey, p *portPage) {
			pages++
			for b := range p.blk {
				if p.blk[b] != nil {
					cs-- // the block's cells, counted below as a touched block
				}
				if p.carry[b] != nil {
					cs-- // its carries, inside the block's 768 B
				}
			}
			for w := 0; w < len(p.seen); w += 4 {
				if p.seen[w]|p.seen[w+1]|p.seen[w+2]|p.seen[w+3] != 0 {
					blocks++
				}
			}
		})
		cs -= pages
		es -= a.Ports.Len()
		budget := uint64(64<<10 + 16<<10*pages + 768*blocks + 96*es + 256*cs)
		t.Logf("n=%d: %.2f MB retained, budget %.2f MB (%d port pages, %d touched blocks, %d other entries, %d other containers)",
			n, float64(retained)/1e6, float64(budget)/1e6, pages, blocks, es, cs)
		if retained > budget {
			t.Fatalf("n=%d: a mixed aggregate retains %d bytes, budget %d", n, retained, budget)
		}
		runtime.KeepAlive(a)
	}
}
