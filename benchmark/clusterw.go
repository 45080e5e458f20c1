package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"spoofscope/benchmark/trace"
	"spoofscope/internal/cluster"
	"spoofscope/internal/core"
)

// clusterCounts is what the coordinator's Stats and the feed loop add up to.
type clusterCounts struct {
	ingestCall                   time.Duration // time inside Coordinator.Ingest
	fed                          uint64        // flows passed to it
	replayed, reassigns, zombies uint64
	// short counts feeds whose first merged checkpoint missed flows still
	// in flight (see maxShortCheckpoints).
	short int64
}

// testCluster is one coordinator and its in-process workers over loopback
// TCP — the wire cmd/spoofscope-worker deploys on, without the real link.
type testCluster struct {
	coord *cluster.Coordinator
	ln    net.Listener
	stop  context.CancelFunc
	done  chan struct{}
}

// workerSettle is waited after every shard has an owner, before the first
// feed is timed: the workers compile the shipped epoch then, and nothing the
// coordinator exposes says when they have. It is several times the compile
// at this scale; a late compile would only make the first feed slow, which
// the median over feeds discards.
const workerSettle = 300 * time.Millisecond

// startCluster is what happens once, outside every timed region: listen,
// dial, hello, epoch ship, shard assignment.
func startCluster(in *inputs) (*testCluster, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	coord, err := cluster.NewCoordinator(cluster.Config{
		Shards: clusterShards, Members: in.members, Start: in.start, Bucket: in.bucket,
		HeartbeatInterval: clusterHeartbeat, HeartbeatMisses: clusterMisses,
		FlowBatch: clusterFlowBatch, Compress: false,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	go coord.Serve(ln)
	ctx, stop := context.WithCancel(context.Background())
	c := &testCluster{coord: coord, ln: ln, stop: stop, done: make(chan struct{}, clusterWorkers)}
	started := 0
	fail := func(err error) (*testCluster, error) {
		c.close(started)
		return nil, err
	}
	for i := 0; i < clusterWorkers; i++ {
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Name:              fmt.Sprintf("bench-worker-%d", i),
			Dial:              func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) },
			Opts:              in.opts,
			HeartbeatInterval: clusterHeartbeat, HeartbeatMisses: clusterMisses,
		})
		if err != nil {
			return fail(err)
		}
		started++
		go func() { w.Run(ctx); c.done <- struct{}{} }()
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.Stats().Workers < clusterWorkers {
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("only %d of %d workers joined", coord.Stats().Workers, clusterWorkers))
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := coord.DistributeEpoch(in.rib); err != nil {
		return fail(err)
	}
	for coord.Stats().Orphaned > 0 {
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("%d shards still without an owner", coord.Stats().Orphaned))
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(workerSettle)
	return c, nil
}

// close stops the workers first, so that none redials a closed coordinator.
func (c *testCluster) close(workers int) {
	c.stop()
	for i := 0; i < workers; i++ {
		<-c.done
	}
	c.coord.Close()
	c.ln.Close()
}

// A merged checkpoint can come back short. A worker answers a report request
// with a snapshot taken after it has counted a flow frame into its cursor but
// before the frame is in the runtime's queue (Worker.applyFlows bumps the
// cursor, then calls IngestBatchWait); the snapshot looks quiescent, and if
// that frame was the shard's last the coordinator merges a checkpoint a few
// hundred flows short while reporting every flow processed. About one feed in
// a hundred does it. The fix belongs to the change that owns the cluster data
// plane; until then the benchmark tolerates a fixed few per run, says how
// many in every run's output, and fails the run beyond that.
const (
	// maxShortCheckpoints is how many feeds of one run may return a short
	// first checkpoint. Some four hundred feeds on the recording host had
	// four, two of them in one run; at one in a hundred a run of twenty
	// feeds sees four with a probability under 0.0001.
	maxShortCheckpoints = 3
	// shortRechecks is how many more times, one heartbeat apart and outside
	// every timed region, a short checkpoint is asked for to see that the
	// missing flows were late and not lost. The first re-ask only triggers
	// the fresh reports (the coordinator is not behind, so it returns what
	// it has); the second normally has them.
	shortRechecks = 4
)

// runCluster repeats feeds for d on one cluster, brought up outside the timed
// region. A feed is one pass of the trace through Coordinator.Ingest as fast
// as it accepts them, then Coordinator.Checkpoint; durable latency runs from
// the last Ingest to that Checkpoint's return. The cluster's state is
// cumulative, so the reference is too: before each feed, outside the timed
// region, the simple path adds the feed's flows to a reference aggregator,
// and the merged checkpoint must equal its encoding byte for byte.
func runCluster(in *inputs, d time.Duration, rec *trace.Recorder) *outcome {
	o := &outcome{}
	base := heapAfterGC()
	c, err := startCluster(in)
	if err != nil {
		o.attempted++
		o.fail("cluster set-up: %v", err)
		return o
	}
	defer c.close(clusterWorkers)

	reference := in.newAggregator()
	var want, got bytes.Buffer
	matches := func(cp *core.Checkpoint) bool {
		got.Reset()
		return core.EncodeCheckpoint(&got, cp) == nil && bytes.Equal(got.Bytes(), want.Bytes())
	}
	n := uint64(len(in.flows))
	var total uint64
	var durable []float64
	begin := time.Now()
	for feed := int64(1); feed == 1 || time.Since(begin) < d; feed++ {
		o.attempted++
		for _, f := range in.flows {
			reference.Add(f, in.pipeline.Classify(f))
		}
		total += n
		want.Reset()
		if err := core.EncodeCheckpoint(&want, &core.Checkpoint{
			Ingested: total, Queued: total, Processed: total, Epoch: 1, Swaps: 1, Agg: reference,
		}); err != nil {
			o.fail("feed %d: encoding the reference: %v", feed, err)
			return o
		}

		from := readUsage()
		span := rec.Begin("cluster.feed", feed, -1)
		call := rec.Begin("cluster.ingest", feed, span)
		for _, f := range in.flows {
			c.coord.Ingest(f)
		}
		rec.End(call)
		fed := time.Now()
		call = rec.Begin("cluster.checkpoint", feed, span)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		cp, err := c.coord.Checkpoint(ctx)
		rec.End(call)
		rec.End(span)
		to := readUsage()

		o.cost.add(from, to, n)
		o.offered += n
		o.cluster.ingestCall += fed.Sub(from.wall)
		o.cluster.fed += n
		if err == nil && !matches(cp) {
			o.cluster.short++
			for i := 0; i < shortRechecks && err == nil && !matches(cp); i++ {
				time.Sleep(clusterHeartbeat)
				cp, err = c.coord.Checkpoint(ctx)
			}
		}
		cancel()
		switch {
		case err != nil:
			o.fail("feed %d: checkpoint: %v", feed, err)
			return o
		case !matches(cp):
			o.fail("feed %d: merged checkpoint differs from the single-process reference, asked for %d more times: %s", feed, shortRechecks, whereItDiffers(cp, want.Bytes()))
			return o // the cluster's state is cumulative: later feeds could not match either
		case o.cluster.short > maxShortCheckpoints:
			o.fail("feed %d: %d first checkpoints were short of flows still in flight; at most %d are tolerated in a run", feed, o.cluster.short, maxShortCheckpoints)
			return o
		}
		o.processed += n
		durable = append(durable, ms(to.wall.Sub(fed)))
	}
	fmt.Printf("cluster: %d of %d feeds returned a short first checkpoint (at most %d tolerated)\n", o.cluster.short, o.attempted, maxShortCheckpoints)
	st := c.coord.Stats()
	o.cluster.replayed = uint64(st.ReplayFlows)
	o.cluster.reassigns = st.Handoffs + st.Rebalances + st.Reclaims
	o.cluster.zombies = st.StaleReports
	// How a feed's time splits between Ingest running ahead and Checkpoint
	// waiting for the backlog shifts both ways from feed to feed, so durable
	// latency is not disturbed on one side only and keeps the median.
	o.latency, o.latencyMs = summarise(durable), median(durable)
	if after := heapAfterGC(); after > base {
		o.liveHeapMB = heapMB(after - base)
	}
	runtime.KeepAlive(in)
	return o
}

// whereItDiffers names the first part of a checkpoint that disagrees with
// the reference's decoding, for the failure line.
func whereItDiffers(got *core.Checkpoint, reference []byte) string {
	want, err := core.DecodeCheckpoint(bytes.NewReader(reference))
	if err != nil {
		return fmt.Sprintf("reference does not decode: %v", err)
	}
	head := func(c *core.Checkpoint) string {
		return fmt.Sprintf("ingested %d queued %d shed %d processed %d epoch %d swaps %d stale %d degraded %v",
			c.Ingested, c.Queued, c.Shed, c.Processed, c.Epoch, c.Swaps, c.StaleVerdicts, c.Degraded)
	}
	if g, w := head(got), head(want); g != w {
		return fmt.Sprintf("header {%s}, reference {%s}", g, w)
	}
	if got.Agg.Total != want.Agg.Total || got.Agg.GrandTotal != want.Agg.GrandTotal {
		return fmt.Sprintf("class totals %+v, reference %+v", got.Agg.Total, want.Agg.Total)
	}
	return "headers and class totals agree; the difference is inside the aggregate's keyed tables"
}
