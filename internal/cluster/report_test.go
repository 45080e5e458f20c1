package cluster

import (
	"context"
	"net"
	"strings"
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

// handPlayedWorker joins one worker played by hand to a two-shard coordinator
// and ingests flows into both shards, keeping the link read so the flows
// arrive. It returns the link and the flows routed to each shard.
func handPlayedWorker(t *testing.T) (*Coordinator, net.Conn, [2]uint64) {
	t.Helper()
	// The hand-played worker sends no heartbeats; the coordinator's clock
	// moves one tick only, to flush the flows, so only a refused report can
	// cost it the link.
	coord, clk := newVirtualCoordinator(t, Config{
		Shards: 2, Members: testMembers, Start: tcStart, Bucket: time.Hour,
		HeartbeatInterval: 20 * time.Millisecond,
	})
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
			body, err := readFrame(conn, nil)
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
	// Flows ship only once a full epoch exists; the reader skips its frame.
	if _, err := coord.DistributeEpoch(testRIB()); err != nil {
		t.Fatal(err)
	}
	flows := testFlows(400)
	var routed [2]uint64
	for _, f := range flows {
		coord.Ingest(f)
		routed[ShardOf(f.Ingress, 2)]++
	}
	if routed[0] == 0 || routed[1] == 0 {
		t.Fatalf("test flows must reach both shards: %v", routed)
	}
	clk.advance(coord.cfg.interval())
	await(t, "every routed flow received", func() bool {
		return got[0].Load() == routed[0] && got[1].Load() == routed[1]
	})
	return coord, conn, routed
}

// emptyCheckpointAt encodes an empty aggregate bucketed from tcStart that
// claims n processed flows.
func emptyCheckpointAt(n uint64, bucket time.Duration) []byte {
	return core.AppendCheckpoint(nil, &core.Checkpoint{
		Ingested: n, Queued: n, Processed: n, Epoch: 1, Swaps: 1,
		Agg: core.NewAggregator(tcStart, bucket),
	})
}

// TestCoordinatorRejectsReportAheadOfItsCheckpoint plays a worker by hand.
// A report whose cursor matches its checkpoint's Processed count is merged; one
// whose cursor runs ahead of it is refused, counted, and costs the link.
func TestCoordinatorRejectsReportAheadOfItsCheckpoint(t *testing.T) {
	coord, conn, routed := handPlayedWorker(t)
	if err := writeSealed(conn, encodeReport(reportMsg{shard: 0, cursor: routed[0], checkpoint: emptyCheckpointAt(routed[0], time.Hour)})); err != nil {
		t.Fatal(err)
	}
	waitStats(t, coord, "the consistent report merged", func(st Stats) bool { return st.ReplayFlows == int(routed[1]) })

	if err := writeSealed(conn, encodeReport(reportMsg{shard: 1, cursor: routed[1], checkpoint: emptyCheckpointAt(routed[1]-1, time.Hour)})); err != nil {
		t.Fatal(err)
	}
	waitStats(t, coord, "the short report refused", func(st Stats) bool { return st.ReportMismatches == 1 && st.Workers == 0 })
	if st := coord.Stats(); st.ReplayFlows != int(routed[1]) {
		t.Fatalf("the refused report acknowledged flows: %d in replay, want %d", st.ReplayFlows, routed[1])
	}
	expectDropped(t, conn)
}

// TestCheckpointRefusesReportOfForeignBucket: a shard report bucketed
// differently from the coordinator's series would land in the wrong buckets
// if folded; Checkpoint refuses it and names the shard instead.
func TestCheckpointRefusesReportOfForeignBucket(t *testing.T) {
	coord, conn, routed := handPlayedWorker(t)
	for shard, bucket := range [2]time.Duration{time.Hour, time.Minute} {
		m := reportMsg{shard: uint32(shard), cursor: routed[shard], checkpoint: emptyCheckpointAt(routed[shard], bucket)}
		if err := writeSealed(conn, encodeReport(m)); err != nil {
			t.Fatal(err)
		}
	}
	waitStats(t, coord, "both reports durable", func(st Stats) bool { return st.ReplayFlows == 0 })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cp, err := coord.Checkpoint(ctx)
	if err == nil || !strings.Contains(err.Error(), "shard 1 report") || !strings.Contains(err.Error(), "bucket") {
		t.Fatalf("Checkpoint over a one-minute-bucket report into hourly series: %v, %v; want shard 1's report refused", cp, err)
	}
}
