package cluster

import (
	"bytes"
	"net"
	"path/filepath"
	"testing"
	"time"

	"spoofscope/internal/faultnet"
)

// The chaos suite's contract: whatever is done to the workers mid-run —
// killed outright, stalled silent, partitioned from the coordinator — the
// final merged checkpoint is byte-identical to the fault-free
// single-process run over the same flows, and the cursor invariant holds
// (every routed flow durably reported exactly once, no replay residue).

// TestClusterSurvivesWorkerKill kills one of three workers mid-feed.
func TestClusterSurvivesWorkerKill(t *testing.T) {
	flows := testFlows(2000)
	want := singleProcessCheckpoint(t, flows)

	tc := newTestCluster(t, 6)
	tc.startWorker(0)
	tc.startWorker(1)
	tc.startWorker(2)
	tc.distribute(testRIB())
	for _, f := range flows[:900] {
		tc.coord.Ingest(f)
	}
	tc.killWorker(1)
	for _, f := range flows[900:] {
		tc.coord.Ingest(f)
	}
	got := tc.checkpointBytes()
	if !bytes.Equal(got, want) {
		t.Fatal("checkpoint diverged across a worker kill")
	}
	tc.assertCursorInvariant(len(flows))
	st := tc.coord.Stats()
	if st.Handoffs == 0 {
		t.Fatalf("worker kill produced no handoffs: %+v", st)
	}
	if st.Workers != 2 {
		t.Fatalf("workers = %d after kill, want 2", st.Workers)
	}
}

// TestClusterSurvivesWorkerStall stalls one worker's link mid-run: from
// the Nth read on, its connection goes silent without closing — the
// failure mode heartbeat deadlines exist for. The coordinator must declare
// it dead and hand its shards off; the stalled worker's session dies on
// its own read deadline and redials a healthy link.
func TestClusterSurvivesWorkerStall(t *testing.T) {
	flows := testFlows(1600)
	want := singleProcessCheckpoint(t, flows)

	tc := newTestCluster(t, 4)
	// Worker 1's first link stalls both directions after a few dozen
	// frames; every later dial (and every other worker) is clean.
	stalled := false
	tc.wrapDial = func(worker int, coordSide, workerSide net.Conn) (net.Conn, net.Conn) {
		if worker != 1 || stalled {
			return coordSide, workerSide
		}
		stalled = true
		return faultnet.Wrap(coordSide, faultnet.Config{Seed: 3, StallAfterReads: 40}),
			faultnet.Wrap(workerSide, faultnet.Config{Seed: 4, StallAfterReads: 40})
	}
	tc.startWorker(0)
	tc.startWorker(1)
	tc.distribute(testRIB())
	for i, f := range flows {
		tc.coord.Ingest(f)
		if i%400 == 399 {
			// Pace the feed across heartbeat intervals so the stall
			// happens mid-run, not after everything already landed.
			time.Sleep(25 * time.Millisecond)
		}
	}
	got := tc.checkpointBytes()
	if !bytes.Equal(got, want) {
		t.Fatal("checkpoint diverged across a stalled worker")
	}
	tc.assertCursorInvariant(len(flows))
	if st := tc.coord.Stats(); st.Handoffs == 0 {
		t.Fatalf("stall produced no handoffs: %+v", st)
	}
}

// TestClusterSurvivesPartition partitions the only worker from the
// coordinator mid-run (link silent both ways), so the cluster is fully
// orphaned and degraded — then the worker's redial heals it. No flow may
// be lost to the partition window.
func TestClusterSurvivesPartition(t *testing.T) {
	flows := testFlows(1200)
	want := singleProcessCheckpoint(t, flows)

	tc := newTestCluster(t, 3)
	partitioned := false
	tc.wrapDial = func(worker int, coordSide, workerSide net.Conn) (net.Conn, net.Conn) {
		if partitioned {
			return coordSide, workerSide
		}
		partitioned = true
		return faultnet.Wrap(coordSide, faultnet.Config{Seed: 5, StallAfterReads: 60}),
			faultnet.Wrap(workerSide, faultnet.Config{Seed: 6, StallAfterReads: 60})
	}
	tc.startWorker(0)
	tc.distribute(testRIB())
	for i, f := range flows {
		tc.coord.Ingest(f)
		if i%300 == 299 {
			time.Sleep(30 * time.Millisecond)
		}
	}
	got := tc.checkpointBytes()
	if !bytes.Equal(got, want) {
		t.Fatal("checkpoint diverged across a partition")
	}
	tc.assertCursorInvariant(len(flows))
	st := tc.coord.Stats()
	if st.Handoffs == 0 {
		t.Fatalf("partition produced no handoffs: %+v", st)
	}
	if st.Workers != 1 {
		t.Fatalf("workers = %d after heal, want 1", st.Workers)
	}
}

// TestClusterSurvivesCoordinatorKill kills the coordinator itself mid-feed.
// A replacement built over the same ledger path resumes from the persisted
// shard ledger: workers redial, reclaim their shards by identity, the
// upstream feeder re-feeds from the restored feed position, and the merged
// checkpoint is still byte-identical to the fault-free single-process run.
func TestClusterSurvivesCoordinatorKill(t *testing.T) {
	flows := testFlows(2400)
	want := singleProcessCheckpoint(t, flows)

	tc := newTestClusterWith(t, 6, func(cfg *Config) {
		cfg.LedgerPath = filepath.Join(t.TempDir(), "shards.ledger")
	})
	tc.startWorker(0)
	tc.startWorker(1)
	tc.distribute(testRIB())
	for _, f := range flows[:1300] {
		tc.coordinator().Ingest(f)
	}
	// Give the ledger a chance to capture real progress: wait for at least
	// one durable snapshot (report merges trigger them constantly).
	await(tc.t, "a ledger snapshot written", func() bool { return tc.coordinator().Stats().LedgerWrites > 0 })

	tc.killCoordinator()
	restored := tc.restartCoordinator()
	if restored > 1300 {
		t.Fatalf("ledger restored %d flows routed, only %d were fed", restored, 1300)
	}
	// The persisted ledger trails the in-memory state by design (writes are
	// async); the feeder's contract is to resume from the restored feed
	// position, re-feeding everything the snapshot had not incorporated.
	if tc.coordinator().EpochSeq() == 0 {
		tc.distribute(testRIB())
	}
	for _, f := range flows[restored:] {
		tc.coordinator().Ingest(f)
	}
	got := tc.checkpointBytes()
	if !bytes.Equal(got, want) {
		t.Fatal("checkpoint diverged across a coordinator kill")
	}
	tc.assertCursorInvariant(len(flows))
	// Orphaned shards go to whoever is connected, so one worker can carry the
	// whole checkpoint while the other is still inside its redial backoff.
	await(tc.t, "both workers back after coordinator restart", func() bool { return tc.coordinator().Stats().Workers == 2 })
}

// TestClusterRepeatedKillsConverge is the grinder: two kills at different
// points of the feed, the second while replay from the first may still be
// in flight. Ownership checks must discard every zombie report.
func TestClusterRepeatedKillsConverge(t *testing.T) {
	flows := testFlows(2400)
	want := singleProcessCheckpoint(t, flows)

	tc := newTestCluster(t, 6)
	tc.startWorker(0)
	tc.startWorker(1)
	tc.startWorker(2)
	tc.distribute(testRIB())
	for _, f := range flows[:800] {
		tc.coord.Ingest(f)
	}
	tc.killWorker(0)
	for _, f := range flows[800:1600] {
		tc.coord.Ingest(f)
	}
	tc.killWorker(2)
	for _, f := range flows[1600:] {
		tc.coord.Ingest(f)
	}
	got := tc.checkpointBytes()
	if !bytes.Equal(got, want) {
		t.Fatal("checkpoint diverged across repeated kills")
	}
	tc.assertCursorInvariant(len(flows))
	if st := tc.coord.Stats(); st.Workers != 1 {
		t.Fatalf("workers = %d after two kills, want 1", st.Workers)
	}
}
