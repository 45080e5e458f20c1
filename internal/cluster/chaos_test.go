package cluster

import (
	"bytes"
	"net"
	"path/filepath"
	"testing"
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
	// The victim must own shards when it dies; a late joiner's arrive by
	// graceful moves after its join.
	awaitOwners(t, tc.coord, "w0", "w1", "w2")
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

// TestClusterSurvivesWorkerStall stalls one worker's link mid-feed: its
// connection goes silent both ways without closing — the failure mode the
// liveness deadline exists for. The cluster's clock then moves on until the
// coordinator declares the silent link dead and hands its shards off; the
// stalled worker drops the link at its own tick, and it redials a healthy one.
func TestClusterSurvivesWorkerStall(t *testing.T) {
	flows := testFlows(1600)
	want := singleProcessCheckpoint(t, flows)

	tc := newVirtualCluster(t, 4)
	// Worker 1's first link can be silenced; every later dial (and every
	// other worker) is clean.
	cuts := make(chan *cut, 1)
	tc.wrapDial = func(worker int, coordSide, workerSide net.Conn) (net.Conn, net.Conn) {
		if worker != 1 || len(cuts) > 0 {
			return coordSide, workerSide
		}
		c := newCut()
		cuts <- c
		return c.wrap(coordSide), c.wrap(workerSide)
	}
	tc.startWorker(0)
	tc.startWorker(1)
	tc.distribute(testRIB())
	awaitOwners(t, tc.coord, "w0", "w1")
	for _, f := range flows[:800] {
		tc.coord.Ingest(f)
	}
	(<-cuts).stall()
	tc.elapse("stalled link declared dead", func() bool { return tc.coord.Stats().Handoffs > 0 }, 0)
	for _, f := range flows[800:] {
		tc.coord.Ingest(f)
	}
	got := tc.checkpointBytes()
	if !bytes.Equal(got, want) {
		t.Fatal("checkpoint diverged across a stalled worker")
	}
	tc.assertCursorInvariant(len(flows))
}

// TestClusterSurvivesPartition partitions the only worker from the
// coordinator mid-feed (link silent both ways), so once the deadline passes
// the cluster is fully orphaned and degraded, buffering what it routes —
// then the worker's redial heals it. No flow may be lost to the partition
// window.
func TestClusterSurvivesPartition(t *testing.T) {
	flows := testFlows(1200)
	want := singleProcessCheckpoint(t, flows)

	tc := newVirtualCluster(t, 3)
	cuts := make(chan *cut, 1)
	tc.wrapDial = func(worker int, coordSide, workerSide net.Conn) (net.Conn, net.Conn) {
		if len(cuts) > 0 {
			return coordSide, workerSide
		}
		c := newCut()
		cuts <- c
		return c.wrap(coordSide), c.wrap(workerSide)
	}
	tc.startWorker(0)
	tc.distribute(testRIB())
	for _, f := range flows[:600] {
		tc.coord.Ingest(f)
	}
	(<-cuts).stall()
	tc.elapse("partitioned link declared dead", func() bool { return tc.coord.Stats().Handoffs > 0 })
	for _, f := range flows[600:] {
		tc.coord.Ingest(f)
	}
	got := tc.checkpointBytes()
	if !bytes.Equal(got, want) {
		t.Fatal("checkpoint diverged across a partition")
	}
	tc.assertCursorInvariant(len(flows))
	if st := tc.coord.Stats(); st.Workers != 1 {
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
	awaitOwners(t, tc.coord, "w0", "w1", "w2")
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
