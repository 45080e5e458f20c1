package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spoofscope/internal/ipfix"
)

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// startStepper drives rt one flow at a time through the one consumer
// contract: Run on its own goroutine, its observer handing each verdict to
// the test over an unbuffered channel. When step returns the flow is already
// aggregated (the observer runs after its batch lands); the worker's idle
// edge — where a due periodic checkpoint is written — follows the observer's
// return, so its effects are read after the next step, or after the drain
// has returned. step reports false once the runtime is closed and drained.
// The test's cleanup closes the runtime and waits for Run to return.
func startStepper(t *testing.T, rt *Runtime) (step func() (LiveVerdict, bool)) {
	t.Helper()
	out := make(chan LiveVerdict)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := rt.Run(nil, func(_ ipfix.Flow, v LiveVerdict) bool {
			out <- v
			return true
		}); err != nil {
			t.Error(err)
		}
	}()
	t.Cleanup(func() {
		rt.Close()
		for {
			select {
			case <-out:
			case <-done:
				return
			}
		}
	})
	return func() (LiveVerdict, bool) {
		select {
		case v := <-out:
			return v, true
		case <-done:
			return LiveVerdict{}, false
		}
	}
}

// drainAll closes rt and runs the drain to exhaustion: the "classify
// everything ingested so far" step of a test that needs no verdicts.
func drainAll(t *testing.T, rt *Runtime) {
	t.Helper()
	rt.Close()
	drainWith(t, rt, 0)
}

func TestRuntimeClassifiesAndTagsEpoch(t *testing.T) {
	p := testPipeline(t, Options{})
	rt, err := NewRuntime(RuntimeConfig{Pipeline: p, Start: cpStart, Bucket: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range checkpointFlows() {
		if rt.IngestBatch([]ipfix.Flow{f}) != 1 {
			t.Fatal("ingest shed with an empty queue")
		}
	}
	rt.Close()
	n := 0
	if err := rt.Run(nil, func(f ipfix.Flow, v LiveVerdict) bool {
		if v.Epoch != 1 {
			t.Errorf("flow %d epoch = %d, want 1", n, v.Epoch)
		}
		if v.Stale {
			t.Errorf("flow %d marked stale with a healthy feed", n)
		}
		if v.Verdict != p.Classify(f) {
			t.Errorf("flow %d verdict diverged from direct classification", n)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(checkpointFlows()) {
		t.Fatalf("processed %d flows, want %d", n, len(checkpointFlows()))
	}
	st := rt.Stats()
	if st.Epoch != 1 || st.Swaps != 1 || st.Processed != uint64(n) || st.Degraded {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRuntimeSwapAndStale(t *testing.T) {
	p := testPipeline(t, Options{})
	rt, err := NewRuntime(RuntimeConfig{Pipeline: p, Start: cpStart, Bucket: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	flows := checkpointFlows()
	step := startStepper(t, rt)

	rt.IngestBatch([]ipfix.Flow{flows[0]})
	if v, _ := step(); v.Epoch != 1 || v.Stale {
		t.Fatalf("healthy verdict = epoch %d stale %v", v.Epoch, v.Stale)
	}

	// Feed goes down: verdicts continue from the old state, marked Stale.
	rt.MarkDegraded()
	rt.IngestBatch([]ipfix.Flow{flows[1]})
	if v, _ := step(); v.Epoch != 1 || !v.Stale {
		t.Fatalf("degraded verdict = epoch %d stale %v, want epoch 1 stale", v.Epoch, v.Stale)
	}

	// Rebuild promotes epoch 2 and clears the marker.
	if e := rt.Swap(testPipeline(t, Options{})); e != 2 {
		t.Fatalf("swap returned epoch %d, want 2", e)
	}
	rt.IngestBatch([]ipfix.Flow{flows[2]})
	if v, _ := step(); v.Epoch != 2 || v.Stale {
		t.Fatalf("post-swap verdict = epoch %d stale %v, want epoch 2 fresh", v.Epoch, v.Stale)
	}

	st := rt.Stats()
	if st.Epoch != 2 || st.Swaps != 2 || st.StaleVerdicts != 1 || st.Degraded {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRuntimeBlocksUntilFirstSwap starts with no routing state at all:
// flows queue, and the drain waits for the first promoted pipeline instead of
// classifying against nothing.
func TestRuntimeBlocksUntilFirstSwap(t *testing.T) {
	rt, err := NewRuntime(RuntimeConfig{Start: cpStart, Bucket: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	rt.IngestBatch([]ipfix.Flow{checkpointFlows()[0]})

	type result struct {
		v  LiveVerdict
		ok bool
	}
	step := startStepper(t, rt)
	done := make(chan result, 1)
	go func() {
		v, ok := step()
		done <- result{v, ok}
	}()
	select {
	case <-done:
		t.Fatal("a flow was classified before any pipeline was promoted")
	case <-time.After(20 * time.Millisecond):
	}
	rt.Swap(testPipeline(t, Options{}))
	select {
	case r := <-done:
		if !r.ok || r.v.Epoch != 1 {
			t.Fatalf("first verdict = %+v", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drain still blocked after the first Swap")
	}
}

func TestRuntimeRunWithContext(t *testing.T) {
	p := testPipeline(t, Options{})
	rt, err := NewRuntime(RuntimeConfig{Pipeline: p, Start: cpStart, Bucket: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range checkpointFlows() {
		rt.IngestBatch([]ipfix.Flow{f})
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	errc := make(chan error, 1)
	go func() {
		errc <- rt.Run(ctx, func(f ipfix.Flow, v LiveVerdict) bool {
			n++
			if n == 3 {
				cancel()
			}
			return true
		})
	}()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
	if n < 3 {
		t.Fatalf("observed %d flows before cancel, want >= 3", n)
	}
}

// TestRuntimeCheckpointResume is the in-package half of the kill-and-resume
// property: checkpoint, drop the runtime, resume, replay the tail, and the
// final snapshots are byte-identical to an uninterrupted run's.
func TestRuntimeCheckpointResume(t *testing.T) {
	flows := checkpointFlows()
	dir := t.TempDir()
	mk := func(name string, resume *Checkpoint) *Runtime {
		rt, err := NewRuntime(RuntimeConfig{
			Pipeline: testPipeline(t, Options{}),
			Start:    cpStart, Bucket: time.Hour,
			CheckpointPath: filepath.Join(dir, name),
			Resume:         resume,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	feed := func(rt *Runtime, flows []ipfix.Flow) {
		for _, f := range flows {
			rt.IngestBatch([]ipfix.Flow{f})
		}
		drainAll(t, rt)
	}

	// Uninterrupted reference run.
	ref := mk("ref.ckpt", nil)
	feed(ref, flows)
	if err := ref.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: checkpoint after 3 flows, then "crash".
	crash := mk("crash.ckpt", nil)
	feed(crash, flows[:3])
	if err := crash.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpointFile(filepath.Join(dir, "crash.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if cp.Ingested != 3 || cp.Processed != 3 {
		t.Fatalf("cursor = %+v, want 3 ingested / 3 processed", cp)
	}

	// Resume in a fresh runtime, re-feeding from the cursor.
	res := mk("crash.ckpt", cp)
	feed(res, flows[cp.Ingested:])
	if err := res.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	a := mustRead(t, filepath.Join(dir, "ref.ckpt"))
	b := mustRead(t, filepath.Join(dir, "crash.ckpt"))
	if !bytes.Equal(a, b) {
		t.Fatal("resumed run's checkpoint differs from the uninterrupted run's")
	}
	if got := res.Stats(); got.Processed != uint64(len(flows)) {
		t.Fatalf("resumed processed = %d, want %d", got.Processed, len(flows))
	}
}

// TestRuntimeResumeAtLaterEpoch is the regression for the firstEpoch gate:
// a checkpoint taken after a BGP-driven swap resumes at epoch >= 2, and the
// re-promoting Swap must still unblock the drain (the gate tracks "a pipeline
// exists", not "the epoch number is 1").
func TestRuntimeResumeAtLaterEpoch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: testPipeline(t, Options{}),
		Start:    cpStart, Bucket: time.Hour,
		CheckpointPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Swap(testPipeline(t, Options{})) // epoch 2, as after a BGP flap rebuild
	flows := checkpointFlows()
	rt.IngestBatch([]ipfix.Flow{flows[0]})
	drainAll(t, rt)
	if err := rt.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Epoch != 2 || cp.Swaps != 2 {
		t.Fatalf("checkpoint epoch/swaps = %d/%d, want 2/2", cp.Epoch, cp.Swaps)
	}

	res, err := NewRuntime(RuntimeConfig{
		Pipeline: testPipeline(t, Options{}),
		Start:    cpStart, Bucket: time.Hour,
		CheckpointPath: path,
		Resume:         cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	res.IngestBatch([]ipfix.Flow{flows[1]})
	step := startStepper(t, res)
	done := make(chan LiveVerdict, 1)
	go func() {
		if v, ok := step(); ok {
			done <- v
		}
	}()
	select {
	case v := <-done:
		if v.Epoch != 2 {
			t.Fatalf("resumed verdict epoch = %d, want 2", v.Epoch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain deadlocked after resuming at epoch 2")
	}
	if st := res.Stats(); st.Epoch != 2 || st.Swaps != 2 {
		t.Fatalf("resumed stats = %+v, want epoch 2 with 2 swaps", st)
	}
}

// TestRuntimeResumeCarriesDegradation: a run that crashes while its routing
// feed is down must resume degraded — the feed gap is still open — with the
// stale-verdict count intact, until a genuinely fresh Swap clears it.
func TestRuntimeResumeCarriesDegradation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: testPipeline(t, Options{}),
		Start:    cpStart, Bucket: time.Hour,
		CheckpointPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	flows := checkpointFlows()
	rt.MarkDegraded()
	rt.IngestBatch([]ipfix.Flow{flows[0]})
	drainAll(t, rt)
	if err := rt.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Degraded || cp.StaleVerdicts != 1 {
		t.Fatalf("checkpoint degradation = %v/%d, want true/1", cp.Degraded, cp.StaleVerdicts)
	}

	res, err := NewRuntime(RuntimeConfig{
		Pipeline: testPipeline(t, Options{}),
		Start:    cpStart, Bucket: time.Hour,
		Resume: cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats(); !st.Degraded || st.StaleVerdicts != 1 {
		t.Fatalf("resumed stats = %+v, want degraded with 1 stale verdict", st)
	}
	step := startStepper(t, res)
	res.IngestBatch([]ipfix.Flow{flows[1]})
	if v, _ := step(); !v.Stale {
		t.Fatal("post-resume verdict unmarked fresh while the feed gap is still open")
	}
	res.Swap(testPipeline(t, Options{})) // fresh state finally arrives
	res.IngestBatch([]ipfix.Flow{flows[2]})
	if v, _ := step(); v.Stale {
		t.Fatal("verdict still stale after a fresh swap")
	}
	if st := res.Stats(); st.Degraded || st.StaleVerdicts != 2 {
		t.Fatalf("post-swap stats = %+v, want fresh with 2 stale verdicts", st)
	}
}

// TestRuntimeCheckpointErrorSurfaced: a persistent snapshot-write failure
// must not silently disable crash-safety — the run keeps classifying, and
// the failure shows up in the stats an operator watches.
func TestRuntimeCheckpointErrorSurfaced(t *testing.T) {
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: testPipeline(t, Options{}),
		Start:    cpStart, Bucket: time.Hour,
		CheckpointPath:  filepath.Join(t.TempDir(), "no", "such", "dir", "run.ckpt"),
		CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range checkpointFlows()[:2] {
		rt.IngestBatch([]ipfix.Flow{f})
	}
	// The due snapshot is attempted at the worker's idle edge and again at
	// its exit, after the flows are aggregated: read the outcome once the
	// drain has returned.
	drainAll(t, rt)
	st := rt.Stats()
	if st.Processed != 2 {
		t.Fatalf("processed = %d, want 2 (classification must outlive checkpoint failures)", st.Processed)
	}
	if st.Checkpoints != 0 || st.CheckpointErrors == 0 || st.LastCheckpointError == "" {
		t.Fatalf("stats = %+v, want 0 checkpoints, errors counted, and a last-error message", st)
	}
	if err := rt.Checkpoint(); err == nil {
		t.Fatal("forced Checkpoint succeeded against an unwritable path")
	}
}

// TestRuntimeCheckpointRefusesPendingQueue: the quiescence check and the
// cursor snapshot come from one atomic queue read, so a checkpoint can
// never record an Ingested cursor past a queued-but-unprocessed flow.
func TestRuntimeCheckpointRefusesPendingQueue(t *testing.T) {
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: testPipeline(t, Options{}),
		Start:    cpStart, Bucket: time.Hour,
		CheckpointPath: filepath.Join(t.TempDir(), "run.ckpt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.IngestBatch([]ipfix.Flow{checkpointFlows()[0]})
	if err := rt.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded with a flow still queued")
	}
	drainAll(t, rt)
	if err := rt.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after draining: %v", err)
	}
	if st := rt.Stats(); st.CheckpointErrors != 0 {
		t.Fatalf("a not-quiescent refusal was counted as a write error: %+v", st)
	}
}

// TestBatchIngestAllocatesNothing: IngestBatch and IngestBatchWait copy a
// message's flows into the ring by value and allocate nothing, whether the
// message holds one flow or a full 64 — an allocation here would be one per
// message for every collector and file replay.
func TestBatchIngestAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const runs = 200
	sizes := []int{1, 64}
	total := 0
	for _, n := range sizes {
		total += 2 * n * (runs + 1) // both doors; AllocsPerRun warms up once
	}
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: testPipeline(t, Options{}),
		Start:    cpStart, Bucket: time.Hour,
		Queue: unboundedQueue(total),
	})
	if err != nil {
		t.Fatal(err)
	}
	doors := []struct {
		name   string
		ingest func([]ipfix.Flow) bool
	}{
		{"IngestBatch", func(b []ipfix.Flow) bool { return rt.IngestBatch(b) == len(b) }},
		{"IngestBatchWait", rt.IngestBatchWait},
	}
	for _, n := range sizes {
		batch := make([]ipfix.Flow, n)
		for i := range batch {
			batch[i] = flowFrom("50.1.2.3", uint32(i%3+1))
		}
		for _, d := range doors {
			if allocs := testing.AllocsPerRun(runs, func() {
				if !d.ingest(batch) {
					t.Fatal("batch refused below capacity")
				}
			}); allocs != 0 {
				t.Errorf("%s of %d flows allocates %.1f objects per call, want 0", d.name, n, allocs)
			}
		}
	}
	if st := rt.Stats().Queue; st.Ingested != uint64(total) || st.Queued != st.Ingested || st.Shed != 0 {
		t.Fatalf("queue counters after %d flows ingested: %+v", total, st)
	}
}
