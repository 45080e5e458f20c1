package cluster

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"spoofscope/internal/core"
)

// encodeReport builds a whole report frame the way the worker does, head
// then checkpoint then seal, from a message that already has both.
func encodeReport(m reportMsg) []byte {
	return sealReport(append(beginReport(nil, m), m.checkpoint...), m.cursor)
}

// TestReportClaimsTheSnapshotsPosition parks a flow frame on the worker's
// read loop between the moment it is counted into the shard's cursor and the
// moment it is queued on the shard's runtime, and takes a report right there.
// The runtime is quiescent at the flows queued before; the report must claim
// that position, the one its checkpoint carries, not the read loop's count. A
// report that claimed the count (the worker used to double-read it around the
// snapshot) would be merged a frame short, with nothing left to ask for.
func TestReportClaimsTheSnapshotsPosition(t *testing.T) {
	const batch = 100
	flows := testFlows(3 * batch)
	want := singleProcessCheckpoint(t, flows)

	tc := newTestClusterWith(t, 1, func(c *Config) { c.FlowBatch = batch })
	var worker *Worker
	var frames atomic.Int32
	parked := make(chan []byte, 1)
	tc.tuneWorker = func(w *Worker) {
		worker = w
		w.enqueueHook = func(shard uint32) {
			if frames.Add(1) != 3 {
				return
			}
			bufs := make(chan []byte, 1)
			bufs <- nil
			w.report(context.Background(), reportMsg{shard: shard}, bufs, func(frame []byte) bool {
				parked <- bytes.Clone(frame)
				return true
			})
		}
	}
	tc.startWorker(0)
	tc.distribute(testRIB())
	tc.await("worker compiled the epoch", func() bool { return worker.health().Ready })
	for _, f := range flows {
		tc.coord.Ingest(f)
	}

	var frame []byte
	select {
	case frame = <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("no report came out of the parked frame")
	}
	m, err := decodeReport(frameBody(t, frame))
	if err != nil {
		t.Fatal(err)
	}
	head, err := core.CheckpointHeader(m.checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if m.cursor != head.Processed {
		t.Fatalf("report claims cursor %d, its checkpoint incorporates %d flows", m.cursor, head.Processed)
	}
	if m.cursor != 2*batch {
		t.Fatalf("report taken with the third frame parked claims %d flows, want the %d queued before it", m.cursor, 2*batch)
	}

	// The parked frame was late, not lost: the merged checkpoint is whole.
	if got := tc.checkpointBytes(); !bytes.Equal(got, want) {
		t.Fatal("merged checkpoint differs from the single-process run")
	}
	tc.assertCursorInvariant(len(flows))
}

// TestCoordinatorRejectsReportAheadOfItsCheckpoint plays a worker by hand.
// A report whose cursor matches its checkpoint's Processed count is merged; one
// whose cursor runs ahead of it is refused, counted, and costs the link.
func TestCoordinatorRejectsReportAheadOfItsCheckpoint(t *testing.T) {
	// The hand-played worker sends no heartbeats; the miss budget is wide
	// enough that only the refused report can cost it the link.
	coord, err := NewCoordinator(Config{
		Shards: 2, Members: testMembers, Start: tcStart, Bucket: time.Hour,
		HeartbeatInterval: 20 * time.Millisecond, HeartbeatMisses: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	conn, nonce := openConn(t, coord)
	hello := helloMsg{identity: "by-hand", name: "by-hand"}
	hello.mac = helloMAC(nil, nonce, hello.identity, hello.name)
	if err := writeSealed(conn, encodeHello(hello)); err != nil {
		t.Fatal(err)
	}
	waitStats(t, coord, "join", func(st Stats) bool { return st.Workers == 1 })

	// net.Pipe is unbuffered: keep reading, and count the flows sent per shard.
	var got [2]atomic.Uint64
	go func() {
		var sc flowScratch
		for {
			body, err := readFrame(conn, time.Time{}, nil)
			if err != nil {
				return
			}
			if body[0] == msgFlows {
				if m, err := sc.decode(body); err == nil {
					got[m.shard].Add(uint64(len(m.flows)))
				}
			}
		}
	}()
	flows := testFlows(400)
	var routed [2]uint64
	for _, f := range flows {
		coord.Ingest(f)
		routed[ShardOf(f.Ingress, 2)]++
	}
	if routed[0] == 0 || routed[1] == 0 {
		t.Fatalf("test flows must reach both shards: %v", routed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for got[0].Load() != routed[0] || got[1].Load() != routed[1] {
		if time.Now().After(deadline) {
			t.Fatalf("flows received %d/%d, routed %v", got[0].Load(), got[1].Load(), routed)
		}
		time.Sleep(time.Millisecond)
	}

	checkpointAt := func(n uint64) []byte {
		return core.AppendCheckpoint(nil, &core.Checkpoint{
			Ingested: n, Queued: n, Processed: n, Epoch: 1, Swaps: 1,
			Agg: core.NewAggregator(tcStart, time.Hour),
		})
	}
	if err := writeSealed(conn, encodeReport(reportMsg{shard: 0, cursor: routed[0], checkpoint: checkpointAt(routed[0])})); err != nil {
		t.Fatal(err)
	}
	waitStats(t, coord, "the consistent report merged", func(st Stats) bool { return st.ReplayFlows == int(routed[1]) })

	if err := writeSealed(conn, encodeReport(reportMsg{shard: 1, cursor: routed[1], checkpoint: checkpointAt(routed[1] - 1)})); err != nil {
		t.Fatal(err)
	}
	waitStats(t, coord, "the short report refused", func(st Stats) bool { return st.ReportMismatches == 1 && st.Workers == 0 })
	if st := coord.Stats(); st.ReplayFlows != int(routed[1]) {
		t.Fatalf("the refused report acknowledged flows: %d in replay, want %d", st.ReplayFlows, routed[1])
	}
	expectDropped(t, conn)
}
