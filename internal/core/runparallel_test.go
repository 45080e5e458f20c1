package core

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spoofscope/internal/bogon"
	"spoofscope/internal/ipfix"
)

// unboundedQueue disables shedding for equivalence tests: the capacity holds
// every flow and the watermark sits at capacity, so Push never drops.
func unboundedQueue(n int) QueueConfig {
	return QueueConfig{Capacity: n + 1, HighWatermark: n + 1}
}

// perFlowReference is what every drain mode is held to, and it is not a mode
// of the runtime: no queue, no batch, no index — one Aggregator.Add per flow
// over the Figure 3 oracle's verdicts, written with the cursor a drained run
// over the same flows reports. It returns the checkpoint file's bytes.
func perFlowReference(t *testing.T, oracle *figure3Oracle, flows []ipfix.Flow, path string) []byte {
	t.Helper()
	ref := NewAggregator(cpStart, time.Hour)
	for _, f := range flows {
		ref.Add(f, oracle.classify(f))
	}
	n := uint64(len(flows))
	cp := &Checkpoint{Ingested: n, Queued: n, Processed: n, Epoch: 1, Swaps: 1, Agg: ref}
	if err := WriteCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	return mustRead(t, path)
}

// runWith enters the drain the way a mode table names it: Run for
// workers == 0, RunParallel otherwise.
func runWith(rt *Runtime, workers int, fn func(ipfix.Flow, LiveVerdict) bool) error {
	if workers == 0 {
		return rt.Run(nil, fn)
	}
	return rt.RunParallel(nil, workers, fn)
}

// drainWith runs rt's drain until it returns, which for a closed runtime is
// exhaustion.
func drainWith(t *testing.T, rt *Runtime, workers int) {
	t.Helper()
	if err := runWith(rt, workers, nil); err != nil {
		t.Fatal(err)
	}
}

// runParallel feeds every flow, drains with the given worker count (0 is
// Run), then forces a final checkpoint and returns its bytes.
func runParallel(t *testing.T, p *Pipeline, flows []ipfix.Flow, workers int, path string) []byte {
	t.Helper()
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: p,
		Start:    cpStart, Bucket: time.Hour,
		Queue:          unboundedQueue(len(flows)),
		CheckpointPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if !rt.Ingest(f) {
			t.Fatal("ingest shed with shedding disabled")
		}
	}
	rt.Close()
	drainWith(t, rt, workers)
	if err := rt.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return mustRead(t, path)
}

// TestRunParallelMatchesSequentialCheckpoint is the drain's determinism
// oracle: its checkpoint — cursor and aggregate, in the canonical encoding —
// must be byte-identical to the per-flow reference's over the same flows, for
// Run and for any worker count.
func TestRunParallelMatchesSequentialCheckpoint(t *testing.T) {
	_, rib, p, flows, _ := buildEndToEndRIB(t)
	dir := t.TempDir()
	oracle := newFigure3Oracle(p, rib, bogon.NewReferenceSet())
	ref := perFlowReference(t, oracle, flows, filepath.Join(dir, "seq.ckpt"))
	for _, workers := range []int{0, 1, 2, 4, 7} {
		got := runParallel(t, p, flows, workers, filepath.Join(dir, "par.ckpt"))
		if !bytes.Equal(ref, got) {
			t.Fatalf("workers=%d: drained checkpoint differs from the per-flow reference's", workers)
		}
	}
}

// TestRunParallelObserverSeesEveryFlow: the serialized fn callback observes
// each flow exactly once, tagged with a live epoch, and no two calls overlap
// — workers take the observer lock a batch at a time.
func TestRunParallelObserverSeesEveryFlow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // RunParallel clamps to it
	_, p, flows, _ := buildEndToEnd(t)
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: p,
		Start:    cpStart, Bucket: time.Hour,
		Queue: unboundedQueue(len(flows)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		rt.Ingest(f)
	}
	rt.Close()
	n := 0 // plain int: fn calls are serialized
	var inFn atomic.Bool
	if err := rt.RunParallel(nil, 4, func(f ipfix.Flow, v LiveVerdict) bool {
		if !inFn.CompareAndSwap(false, true) {
			t.Error("fn entered while another call was in progress")
		}
		defer inFn.Store(false)
		if v.Epoch != 1 || v.Stale {
			t.Errorf("verdict epoch/stale = %d/%v, want 1/false", v.Epoch, v.Stale)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(flows) {
		t.Fatalf("observed %d flows, want %d", n, len(flows))
	}
	if st := rt.Stats(); st.Processed != uint64(len(flows)) {
		t.Fatalf("processed = %d, want %d", st.Processed, len(flows))
	}
}

// TestRunParallelFnFalseStops: an fn that returns false closes intake, every
// worker exits after its in-flight batch, and fn is never called again — not
// for the rest of the batch it stopped in (the tenth flow sits inside the
// first 256-flow batch), not by a worker that was waiting for the observer
// lock with a classified batch in hand. The Run row pins what "stop" means
// for the one worker there is: the batch it had claimed is aggregated whole,
// nothing else leaves the queue, and a checkpoint refuses until it does.
func TestRunParallelFnFalseStops(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // RunParallel clamps to it
	_, p, flows, _ := buildEndToEnd(t)
	if len(flows) < 4*consumeBatchSize {
		t.Fatalf("trace of %d flows cannot keep four workers in flight", len(flows))
	}
	for _, mode := range []struct {
		name    string
		workers int // 0 is Run
	}{{"parallel-4", 4}, {"run", 0}} {
		t.Run(mode.name, func(t *testing.T) {
			rt, err := NewRuntime(RuntimeConfig{
				Pipeline: p,
				Start:    cpStart, Bucket: time.Hour,
				Queue:          unboundedQueue(len(flows)),
				CheckpointPath: filepath.Join(t.TempDir(), "run.ckpt"),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range flows {
				rt.Ingest(f)
			}
			n := 0
			fn := func(ipfix.Flow, LiveVerdict) bool {
				n++
				return n < 10
			}
			done := make(chan error, 1)
			go func() { done <- runWith(rt, mode.workers, fn) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("drain did not stop after fn returned false")
			}
			if n != 10 {
				t.Fatalf("fn was called %d times, want exactly 10: it returned false on the tenth", n)
			}
			if mode.workers != 0 {
				return
			}
			st := rt.Stats()
			if st.Processed != consumeBatchSize || st.Queue.Depth != len(flows)-consumeBatchSize {
				t.Fatalf("processed %d with %d still queued, want the one claimed batch (%d) and the other %d",
					st.Processed, st.Queue.Depth, consumeBatchSize, len(flows)-consumeBatchSize)
			}
			if err := rt.Checkpoint(); !errors.Is(err, ErrNotQuiescent) {
				t.Fatalf("Checkpoint with flows still queued: %v, want ErrNotQuiescent", err)
			}
		})
	}
}

// TestRunParallelContextCancel: cancelling the context closes intake, the
// workers drain what is queued, and the cancellation error surfaces.
func TestRunParallelContextCancel(t *testing.T) {
	_, p, flows, _ := buildEndToEnd(t)
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: p,
		Start:    cpStart, Bucket: time.Hour,
		Queue: unboundedQueue(len(flows)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		rt.Ingest(f)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rt.RunParallel(ctx, 2, nil); err != context.Canceled {
		t.Fatalf("RunParallel returned %v, want context.Canceled", err)
	}
}

// TestRunParallelPeriodicCheckpoint: periodic snapshots still happen in
// parallel mode — at the idle edge, once every worker has merged — and the
// written checkpoint is quiescent (cursor == processed).
func TestRunParallelPeriodicCheckpoint(t *testing.T) {
	_, p, flows, _ := buildEndToEnd(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: p,
		Start:    cpStart, Bucket: time.Hour,
		Queue:           unboundedQueue(len(flows)),
		CheckpointPath:  path,
		CheckpointEvery: uint64(len(flows) / 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		rt.Ingest(f)
	}
	rt.Close()
	if err := rt.RunParallel(nil, 4, nil); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Checkpoints == 0 {
		t.Fatal("no periodic checkpoint was written")
	}
	if st.CheckpointErrors != 0 {
		t.Fatalf("checkpoint errors: %d (%s)", st.CheckpointErrors, st.LastCheckpointError)
	}
	cp, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Processed != cp.Queued || cp.Processed != uint64(len(flows)) {
		t.Fatalf("checkpoint cursor %d/%d not quiescent at %d flows",
			cp.Processed, cp.Queued, len(flows))
	}
}

// TestRunParallelKillResumeSwitchWorkers is the full crash-recovery
// equivalence: a run interrupted at a checkpoint resumes in a fresh runtime
// with a DIFFERENT worker count — Run ("sequential", worker count 0) to
// parallel, and parallel to a narrower parallel — and the final checkpoint is
// byte-identical to the per-flow reference's over the whole trace.
func TestRunParallelKillResumeSwitchWorkers(t *testing.T) {
	_, rib, p, flows, _ := buildEndToEndRIB(t)
	dir := t.TempDir()
	oracle := newFigure3Oracle(p, rib, bogon.NewReferenceSet())
	ref := perFlowReference(t, oracle, flows, filepath.Join(dir, "ref.ckpt"))
	cut := 2 * len(flows) / 5

	resume := func(t *testing.T, path string, firstWorkers, secondWorkers int) {
		t.Helper()
		// Phase 1: classify the prefix, checkpoint, "crash".
		runParallel(t, p, flows[:cut], firstWorkers, path)
		cp, err := ReadCheckpointFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if cp.Ingested != uint64(cut) || cp.Processed != uint64(cut) {
			t.Fatalf("cursor = %d/%d, want %d", cp.Ingested, cp.Processed, cut)
		}

		// Phase 2: resume with a different worker count, re-feeding from the
		// cursor.
		rt, err := NewRuntime(RuntimeConfig{
			Pipeline: p,
			Start:    cpStart, Bucket: time.Hour,
			Queue:          unboundedQueue(len(flows)),
			CheckpointPath: path,
			Resume:         cp,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range flows[cp.Ingested:] {
			rt.Ingest(f)
		}
		rt.Close()
		drainWith(t, rt, secondWorkers)
		if err := rt.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := mustRead(t, path); !bytes.Equal(ref, got) {
			t.Fatalf("resumed %d->%d workers: final checkpoint differs from uninterrupted run",
				firstWorkers, secondWorkers)
		}
	}

	t.Run("sequential-to-parallel4", func(t *testing.T) {
		resume(t, filepath.Join(dir, "s2p.ckpt"), 0, 4)
	})
	t.Run("parallel4-to-parallel2", func(t *testing.T) {
		resume(t, filepath.Join(dir, "p4p2.ckpt"), 4, 2)
	})
	t.Run("parallel2-to-sequential", func(t *testing.T) {
		resume(t, filepath.Join(dir, "p2s.ckpt"), 2, 0)
	})
}

// TestRunContextCancelWithFnFalse: a cancelled context wins even when fn
// stops the loop in the same iteration — Run must report the cancellation
// instead of masking it with nil.
func TestRunContextCancelWithFnFalse(t *testing.T) {
	p := testPipeline(t, Options{})
	rt, err := NewRuntime(RuntimeConfig{Pipeline: p, Start: cpStart, Bucket: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	rt.Ingest(checkpointFlows()[0])
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- rt.Run(ctx, func(ipfix.Flow, LiveVerdict) bool {
			cancel()
			return false
		})
	}()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return")
	}
}
