package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spoofscope/internal/ipfix"
)

// TestDrainModesReproduceGoldenCheckpoints is the drain engine's equivalence
// table: however the one loop is entered, and wherever its batches land, the
// golden traces must aggregate to the committed testdata/*.ckpt byte for
// byte. The golden verdicts are synthesised, so the drain hook substitutes
// them for the pipeline's (each flow carries its index in Egress, which no
// aggregate reads). The observed row passes Run a counting observer: same
// loop, same bytes, one call per flow. The forced-spill row starts with the
// runtime lock held, so both workers spill every batch into their private
// shards, and lets go half way: the rest of the run folds those shards back
// on lock wins and aggregates in place.
func TestDrainModesReproduceGoldenCheckpoints(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // RunParallel clamps to it
	_, p, _, _ := buildEndToEnd(t)
	modes := []struct {
		name     string
		workers  int // 0 is Run
		observed bool
		spill    bool
	}{
		{"run", 0, false, false},
		{"run-observed", 0, true, false},
		{"parallel-1", 1, false, false},
		{"parallel-2", 2, false, false},
		{"parallel-4", 4, false, false},
		{"parallel-2-spilled", 2, false, true},
	}
	for _, shape := range goldenShapes {
		want, err := os.ReadFile(filepath.Join("testdata", shape.name+".ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		golden := goldenCheckpoint(shape.attack)
		flows, verdicts := shapedTrace(shape.attack, int(golden.Processed), 20170101)
		for i := range flows {
			flows[i].Egress = uint32(i)
		}
		for _, mode := range modes {
			t.Run(shape.name+"/"+mode.name, func(t *testing.T) {
				rt, err := NewRuntime(RuntimeConfig{
					Pipeline: p, Start: cpStart, Bucket: time.Hour,
					Queue: unboundedQueue(len(flows)),
				})
				if err != nil {
					t.Fatal(err)
				}
				var seen atomic.Int64
				var release sync.Once
				rt.drainHook = func(batch []ipfix.Flow, out []Verdict) {
					for i, f := range batch {
						out[i] = verdicts[f.Egress]
					}
					if mode.spill && seen.Add(int64(len(batch))) >= int64(len(flows)/2) {
						release.Do(rt.mu.Unlock)
					}
				}
				if rt.IngestBatch(flows) != len(flows) {
					t.Fatal("ingest shed with shedding disabled")
				}
				rt.Close()
				if mode.spill {
					rt.mu.Lock()
				}
				observedFlows := 0 // plain int: fn calls are serialized
				var fn func(ipfix.Flow, LiveVerdict) bool
				if mode.observed {
					fn = func(ipfix.Flow, LiveVerdict) bool { observedFlows++; return true }
				}
				if err := runWith(rt, mode.workers, fn); err != nil {
					t.Fatal(err)
				}
				if mode.observed && observedFlows != len(flows) {
					t.Fatalf("observer saw %d of %d flows", observedFlows, len(flows))
				}
				st := rt.Stats()
				if st.Processed != uint64(len(flows)) {
					t.Fatalf("processed %d of %d flows", st.Processed, len(flows))
				}
				switch {
				case mode.spill && (st.DrainSpilled == 0 || st.DrainMerges == 0):
					t.Fatalf("nothing spilled with the lock held: %d spilled batches, %d merges", st.DrainSpilled, st.DrainMerges)
				case mode.workers <= 1 && st.DrainSpilled+st.DrainMerges != 0:
					t.Fatalf("a single consumer spilled %d batches and merged %d times", st.DrainSpilled, st.DrainMerges)
				}
				cp := *golden
				cp.Agg = rt.Aggregator()
				if got := AppendCheckpoint(nil, &cp); !bytes.Equal(got, want) {
					t.Fatalf("checkpoint differs from testdata/%s.ckpt at byte %d (%d spilled batches, %d merges)",
						shape.name, firstDiff(got, want), st.DrainSpilled, st.DrainMerges)
				}
			})
		}
	}
}

// TestIdleEdgeIsFree: below capacity a worker finds the queue empty after
// almost every batch. With nothing spilled that edge must cost nothing — no
// merge, no allocation — however many workers share the runtime.
func TestIdleEdgeIsFree(t *testing.T) {
	_, p, flows, _ := buildEndToEnd(t)
	flows = flows[:512]
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: p, Start: cpStart, Bucket: time.Hour,
		Queue: unboundedQueue(len(flows)),
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rt.RunParallel(nil, 2, nil) }()
	// One flow at a time, each waited for: every flow is a batch of its own
	// with an idle edge behind it, and no two workers ever want the lock at
	// once. (Stats takes that lock; the atomic count does not.)
	var fed uint64
	trickle := func() {
		rt.Ingest(flows[fed%uint64(len(flows))])
		fed++
		for rt.processed.Load() != fed {
			runtime.Gosched()
		}
	}
	for range flows {
		trickle() // warm: every key these flows touch now exists
	}
	allocs := testing.AllocsPerRun(len(flows), trickle)
	rt.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.DrainMerges != 0 || st.DrainSpilled != 0 || st.DrainInPlace != fed {
		t.Fatalf("%d flows trickled: %d batches in place, %d spilled, %d merges; want all in place",
			fed, st.DrainInPlace, st.DrainSpilled, st.DrainMerges)
	}
	if allocs != 0 && !raceEnabled {
		t.Fatalf("%.2f allocations per trickled flow, want 0", allocs)
	}
}

// TestSnapshotRefusesUnmergedSpill: flows that sit in a worker's private
// shard are in flight. A snapshot taken then would carry a cursor its
// aggregate has not reached, so it must refuse until the shard has folded.
func TestSnapshotRefusesUnmergedSpill(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // a sole worker waits for the lock instead of spilling
	_, p, flows, _ := buildEndToEnd(t)
	flows = flows[:600]
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: p, Start: cpStart, Bucket: time.Hour,
		Queue: unboundedQueue(len(flows)),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.IngestBatch(flows)
	rt.mu.Lock() // every batch spills; the workers then wait at their idle edge to fold
	done := make(chan error, 1)
	go func() { done <- rt.RunParallel(nil, 2, nil) }()
	for rt.processed.Load() != uint64(len(flows)) {
		runtime.Gosched()
	}
	_, err = rt.snapshotLocked()
	spilled := rt.spilledBatches.Load()
	rt.mu.Unlock()
	if !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("snapshot with %d batches spilled and unmerged: %v, want ErrNotQuiescent", spilled, err)
	}
	var processed uint64
	for {
		err := rt.Snapshot(func(cp *Checkpoint) error { processed = cp.Processed; return nil })
		if err == nil {
			break
		}
		if !errors.Is(err, ErrNotQuiescent) {
			t.Fatal(err)
		}
		runtime.Gosched()
	}
	if st := rt.Stats(); processed != uint64(len(flows)) || st.DrainMerges == 0 || st.DrainInPlace != 0 {
		t.Fatalf("quiescent at %d of %d flows after %d merges, %d batches in place", processed, len(flows), st.DrainMerges, st.DrainInPlace)
	}
	rt.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
