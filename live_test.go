package spoofscope

// Acceptance tests for the degradation-aware live runtime: kill-and-resume
// must reproduce an uninterrupted run's Table 1 tallies byte-for-byte, and
// classification must ride across a BGP flap + rebuild with verdicts tagged
// Stale during the gap and identical shed accounting across replays.

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/faultnet"
	"spoofscope/internal/netx"
	"spoofscope/internal/obs"
)

// TestKillAndResumeByteIdenticalTallies checkpoints a live run mid-trace,
// "kills" the runtime, resumes from the checkpoint file in a fresh runtime
// re-fed from the cursor, and requires the final checkpoint — the full
// aggregate state, Table 1 tallies included — to be byte-identical to an
// uninterrupted run over the same trace.
func TestKillAndResumeByteIdenticalTallies(t *testing.T) {
	sim := newSmallSim(t)
	flows := sim.Flows()
	if len(flows) > 4000 {
		flows = flows[:4000]
	}
	start, _ := sim.Env().Scenario.Window()
	dir := t.TempDir()

	mk := func(name string, resume *Checkpoint) *LiveRuntime {
		rt, err := NewLiveRuntime(LiveRuntimeConfig{
			Classifier: sim.Classifier(),
			Members:    sim.Members(),
			Start:      start, Bucket: time.Hour,
			CheckpointPath: filepath.Join(dir, name),
			Resume:         resume,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	// feed classifies flows to the last one: a drain running behind a
	// backpressured producer, closed and waited for.
	feed := func(rt *LiveRuntime, flows []Flow) {
		done := make(chan error, 1)
		go func() { done <- rt.Run(nil, nil) }()
		for _, f := range flows {
			if !rt.IngestBatchWait([]Flow{f}) {
				t.Fatal("runtime closed mid-feed")
			}
		}
		rt.Close()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	finalBytes := func(rt *LiveRuntime, name string) []byte {
		if err := rt.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Reference: one uninterrupted run.
	ref := mk("ref.ckpt", nil)
	feed(ref, flows)
	want := finalBytes(ref, "ref.ckpt")

	// Interrupted run: process 40%, checkpoint, abandon the runtime (the
	// crash — nothing after the snapshot survives).
	cut := len(flows) * 2 / 5
	crashed := mk("run.ckpt", nil)
	feed(crashed, flows[:cut])
	if err := crashed.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Resume: read the file back, rebuild routing state, re-feed the
	// source from the cursor.
	cp, err := ReadCheckpoint(filepath.Join(dir, "run.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if cp.Ingested != uint64(cut) || cp.Processed != uint64(cut) {
		t.Fatalf("cursor = %d/%d, want %d", cp.Ingested, cp.Processed, cut)
	}
	resumed := mk("run.ckpt", cp)
	feed(resumed, flows[cp.Ingested:])
	got := finalBytes(resumed, "run.ckpt")

	if !bytes.Equal(want, got) {
		t.Fatalf("resumed checkpoint (%d bytes) differs from uninterrupted run's (%d bytes)",
			len(got), len(want))
	}
	if st := resumed.Stats(); st.Processed != uint64(len(flows)) {
		t.Fatalf("resumed processed = %d, want %d", st.Processed, len(flows))
	}
}

// liveFeedReplay runs the full epoch lifecycle against a live route server
// whose first connection dies mid-replay: classify a batch under epoch 1,
// mark the gap when the session flaps, classify a batch through the gap
// (stale), then classify a final batch under the rebuilt epoch 2. The
// ingest schedule pushes each batch through a deliberately tiny queue to
// engage the shed watermark identically on every replay.
//
// The consumer is Run with an observer that hands each verdict to the test
// and then waits to be released, so between batches the drain worker sits
// inside fn and claims nothing: every burst lands on a queue nobody is
// draining, which is what makes the shed accounting a function of the
// schedule alone. (Run starts after the first burst for the same reason.)
type liveReplayResult struct {
	epochs  [3]Epoch // per batch: observed epoch of first verdict
	stale   [3]int   // per batch: stale verdict count
	shed    uint64
	queued  uint64
	flaps   int
	counts  map[Class]int
	highWat int
}

func liveFeedReplay(t *testing.T, sim *Simulation) liveReplayResult {
	t.Helper()
	anns := sim.Env().Scenario.Anns
	flows := sim.Flows()
	if len(flows) > 900 {
		flows = flows[:900]
	}
	start, _ := sim.Env().Scenario.Window()

	// Route server: connection 0 resets mid-replay, connection 1 replays
	// the complete table.
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := faultnet.WrapListener(inner, func(i int) faultnet.Config {
		if i == 0 {
			return faultnet.Config{Seed: 21, ResetAfterWrites: 40}
		}
		return faultnet.Config{}
	})
	defer ln.Close()
	// The second accept follows the feed's flap, and so the gap signal
	// that marked the runtime degraded. Holding that connection's replay —
	// and so the snapshot and swap — until batch 1 is classified makes the
	// gap window deterministic.
	gapSeen := make(chan struct{})
	holdSwap := make(chan struct{})
	go serveAnnouncements(ln, anns, func(i int) {
		if i == 1 {
			close(gapSeen)
			<-holdSwap
		}
	})

	tel := NewTelemetry()
	rt, err := NewLiveRuntime(LiveRuntimeConfig{
		Classifier: sim.Classifier(), // epoch 1: the pre-flap state
		Members:    sim.Members(),
		Start:      start, Bucket: time.Hour,
		Queue:     QueueConfig{Capacity: 256, HighWatermark: 192},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}

	res := liveReplayResult{counts: map[Class]int{}}

	var (
		verdicts = make(chan LiveVerdict)
		release  = make(chan struct{}) // lets the worker past the flow it last handed over
		runDone  = make(chan error, 1)
		held     bool
	)
	defer func() {
		close(release)
		rt.Close()
		if err := <-runDone; err != nil {
			t.Errorf("Run: %v", err)
		}
	}()

	// batch ingests n flows at once (overrunning the watermark so the shed
	// policy engages), then drains what was queued — the same arrival/drain
	// interleaving on every replay.
	off := 0
	batch := func(bi, n int) {
		queuedBefore := rt.Stats().Queue.Queued
		for _, f := range flows[off : off+n] {
			rt.IngestBatch([]Flow{f})
		}
		off += n
		accepted := rt.Stats().Queue.Queued - queuedBefore
		if bi == 0 {
			go func() {
				runDone <- rt.Run(nil, func(_ Flow, v LiveVerdict) bool {
					verdicts <- v
					<-release
					return true
				})
			}()
		}
		for i := uint64(0); i < accepted; i++ {
			if held {
				release <- struct{}{}
			}
			v := <-verdicts
			held = true
			if i == 0 {
				res.epochs[bi] = v.Epoch
			}
			if v.Stale {
				res.stale[bi]++
			}
			res.counts[v.Class]++
		}
	}

	// Batch 0: healthy epoch 1.
	batch(0, 300)

	// Supervised feed through ServeBGP: the flap marks the runtime degraded,
	// and one complete replay then promotes epoch 2 and clears the marker.
	feedDone := make(chan error, 1)
	go func() {
		feedDone <- rt.ServeBGP(context.Background(), BGPFeedConfig{
			FeedConfig: bgp.FeedConfig{
				Addr: ln.Addr().String(),
				Session: bgp.SessionConfig{
					LocalAS: 64999, LocalID: netx.MustParseAddr("198.51.100.2"),
					HoldTime: 5 * time.Second,
				},
				InitialBackoff: 10 * time.Millisecond,
				Seed:           13,
			},
			MaxEpochs: 1, // one rebuilt epoch is enough
		})
	}()

	// Batch 1: classified during the gap — old state, tagged Stale.
	<-gapSeen
	batch(1, 300)
	close(holdSwap)
	if err := <-feedDone; err != nil {
		t.Fatalf("feed: %v", err)
	}

	// Batch 2: the rebuilt epoch 2, fresh again.
	batch(2, 300)

	st := rt.Stats()
	res.shed = st.Queue.Shed
	res.queued = st.Queue.Queued
	for _, e := range tel.Journal.Events() {
		if e.Kind == obs.EventBGPFlap {
			res.flaps++
		}
	}
	res.highWat = st.Queue.HighWatermarkObserved
	return res
}

// TestEpochSwapAcrossFlap: classification proceeds uninterrupted across a
// BGP flap + rebuild; verdicts during the gap are tagged Stale; shed
// accounting is identical across two replays of the same schedule.
func TestEpochSwapAcrossFlap(t *testing.T) {
	sim := newSmallSim(t)

	r1 := liveFeedReplay(t, sim)
	if r1.flaps == 0 {
		t.Fatal("faulted replay produced no flap")
	}
	if r1.epochs[0] != 1 || r1.stale[0] != 0 {
		t.Fatalf("batch 0 = epoch %d, %d stale; want epoch 1, fresh", r1.epochs[0], r1.stale[0])
	}
	// Gap batch: still epoch 1 (classification never stopped), all stale.
	if r1.epochs[1] != 1 || r1.stale[1] == 0 {
		t.Fatalf("batch 1 = epoch %d, %d stale; want epoch 1, stale", r1.epochs[1], r1.stale[1])
	}
	// Post-rebuild batch: epoch 2, fresh.
	if r1.epochs[2] != 2 || r1.stale[2] != 0 {
		t.Fatalf("batch 2 = epoch %d, %d stale; want epoch 2, fresh", r1.epochs[2], r1.stale[2])
	}
	// The 300-flow bursts into a 256-slot queue must have shed past the
	// watermark — and every shed is accounted.
	if r1.shed == 0 {
		t.Fatal("burst schedule shed nothing; watermark never engaged")
	}
	if r1.queued+r1.shed != 900 {
		t.Fatalf("accounting leak: queued %d + shed %d != 900 ingested", r1.queued, r1.shed)
	}
	if r1.highWat < 192 {
		t.Fatalf("high watermark observed %d, want >= 192", r1.highWat)
	}

	// Second replay: identical shed counts and tallies.
	r2 := liveFeedReplay(t, sim)
	if r1.shed != r2.shed || r1.queued != r2.queued {
		t.Fatalf("shed accounting diverged across replays: %d/%d vs %d/%d",
			r1.shed, r1.queued, r2.shed, r2.queued)
	}
	for c, n := range r1.counts {
		if r2.counts[c] != n {
			t.Fatalf("%s tally diverged across replays: %d vs %d", c, n, r2.counts[c])
		}
	}
}
