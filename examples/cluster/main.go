// Cluster: the fault-tolerant coordinator/worker runtime surviving a
// worker crash without dropping or double-counting a single flow. A
// coordinator shards the simulated IXP's traffic by ingress member across
// three workers, each dialling in over an in-process pipe and compiling
// its own classification pipeline from the distributed RIB epoch. Midway
// through the feed one worker is killed outright — its runtimes die with
// it — and the coordinator reassigns the orphaned shards to the survivors,
// resuming each from the worker's last durable report plus the
// coordinator's replay buffer.
//
// The proof at the end is exact, not approximate: the merged cluster
// checkpoint is compared byte-for-byte against a fault-free
// single-process run over the same flows. The journal prints the shard
// lifecycle as it happened — joins, assigns, the crash, the handoffs.
//
//	go run ./examples/cluster
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"strings"
	"time"

	"spoofscope"
	"spoofscope/internal/bgp"
	"spoofscope/internal/cluster"
	"spoofscope/internal/core"
	"spoofscope/internal/obs"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sim, err := spoofscope.NewSimulation(spoofscope.SimulationSizeSmall, 11)
	if err != nil {
		return err
	}
	members := sim.Members()
	flows := sim.Flows()
	if len(flows) > 6000 {
		flows = flows[:6000]
	}
	rib := bgp.NewRIB()
	for _, a := range sim.Env().Scenario.Anns {
		rib.AddAnnouncement(a.Prefix, a.Path)
	}
	start := time.Unix(1486252800, 0).UTC()
	log.Printf("scenario: %d members, %d flows", len(members), len(flows))

	// Fault-free single-process reference over the same flows — the oracle
	// the crashed cluster run must reproduce exactly.
	want, err := singleProcess(rib, members, start, flows)
	if err != nil {
		return err
	}

	tel := obs.NewTelemetry()
	coord, err := cluster.NewCoordinator(cluster.Config{
		Shards:            8,
		Members:           members,
		Start:             start,
		Bucket:            time.Hour,
		HeartbeatInterval: 50 * time.Millisecond,
		Telemetry:         tel,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	// Three workers, each dialling the coordinator over an in-process
	// pipe. In a real deployment each would be its own process dialling a
	// TCP listener served with coord.Serve; the protocol is the same.
	type worker struct {
		cancel context.CancelFunc
		done   chan struct{}
	}
	startWorker := func(name string, seed int64) (worker, error) {
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Name: name,
			Dial: func() (net.Conn, error) {
				workerSide, coordSide := net.Pipe()
				coord.AddConn(coordSide)
				return workerSide, nil
			},
			HeartbeatInterval: 50 * time.Millisecond,
			InitialBackoff:    10 * time.Millisecond,
			Seed:              seed,
			Telemetry:         tel,
		})
		if err != nil {
			return worker{}, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); w.Run(ctx) }()
		for deadline := time.Now().Add(10 * time.Second); !joined(tel, name); {
			if time.Now().After(deadline) {
				cancel()
				return worker{}, fmt.Errorf("worker %s never joined", name)
			}
			time.Sleep(time.Millisecond)
		}
		return worker{cancel, done}, nil
	}
	workers := map[string]worker{}
	for i, name := range []string{"alpha", "beta", "gamma"} {
		w, err := startWorker(name, int64(i+1))
		if err != nil {
			return err
		}
		workers[name] = w
		defer w.cancel()
	}
	if _, err := coord.DistributeEpoch(rib); err != nil {
		return err
	}
	log.Printf("cluster up: %d workers, epoch distributed", coord.Stats().Workers)

	// Feed the first half, then kill worker beta without ceremony — no
	// final report, no goodbye; everything it classified since its last
	// durable report is discarded and replayed to a survivor.
	half := len(flows) / 2
	for _, f := range flows[:half] {
		coord.Ingest(f)
	}
	log.Printf("fed %d flows — killing worker beta mid-run", half)
	workers["beta"].cancel()
	<-workers["beta"].done
	for _, f := range flows[half:] {
		coord.Ingest(f)
	}

	// Checkpoint blocks until every routed flow is durably reported by its
	// current owner, then merges the per-shard checkpoints.
	cctx, ccancel := context.WithTimeout(context.Background(), time.Minute)
	defer ccancel()
	cp, err := coord.Checkpoint(cctx)
	if err != nil {
		return err
	}
	var got bytes.Buffer
	if err := core.EncodeCheckpoint(&got, cp); err != nil {
		return err
	}
	st := coord.Stats()
	log.Printf("after the crash: %d flows routed, %d handoffs, %d workers left",
		st.FlowsRouted, st.Handoffs, st.Workers)
	if !bytes.Equal(got.Bytes(), want) {
		return fmt.Errorf("cluster checkpoint diverged from the fault-free run (%d vs %d bytes)",
			got.Len(), len(want))
	}
	log.Printf("merged checkpoint (%d bytes) is byte-identical to the fault-free single-process run", got.Len())

	fmt.Println("\nper-class totals from the merged cluster checkpoint:")
	for _, c := range []core.TrafficClass{
		core.TCBogon, core.TCUnrouted, core.TCInvalidFull, core.TCRegular,
	} {
		cnt := cp.Agg.Total[c]
		fmt.Printf("  %-12s %6d flows %9d packets\n", c, cnt.Flows, cnt.Packets)
	}

	fmt.Println("\nshard lifecycle (journal excerpt):")
	shown := 0
	for _, e := range tel.Journal.Events() {
		switch e.Kind {
		case obs.EventWorkerJoin, obs.EventWorkerDead, obs.EventShardHandoff,
			obs.EventClusterRebalance, obs.EventClusterDegraded, obs.EventClusterRecovered:
			fmt.Printf("  %-18s %s\n", e.Kind, e.Msg)
			if shown++; shown >= 24 {
				fmt.Println("  ...")
				break
			}
		}
		if shown >= 24 {
			break
		}
	}

	// Every crash handoff above left a trace span in the journal — the
	// same trace ID walks revoke/death → reassign → resumed, and the
	// stage latencies land in the handoff histogram. Both come from the
	// coordinator's ordinary telemetry, not from test scaffolding.
	fmt.Println("\nhandoff trace spans (kind=span-handoff):")
	spans, _ := tel.Journal.EventsSince(0, obs.EventSpanHandoff)
	for i, e := range spans {
		if i >= 12 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %s\n", e.Msg)
	}
	for _, stage := range []string{"reassign", "resumed"} {
		if snap, ok := tel.Metrics.FindHistogram(cluster.MetricHandoff,
			obs.Label{Name: "stage", Value: stage}); ok && snap.Count > 0 {
			fmt.Printf("handoff %-8s %d observations, mean %.1fms\n",
				stage, snap.Count, snap.Sum/float64(snap.Count)*1000)
		}
	}

	// The fleet status API is the same struct /cluster serves over HTTP in
	// a real deployment: per-shard cursors and durability lag, and the live
	// workers with their epochs — survivors only after the crash.
	fs := coord.FleetStatus()
	fmt.Printf("\nfleet status (role=%s, epoch %d, %d flows routed):\n",
		fs.Role, fs.EpochSeq, fs.FlowsRouted)
	for _, w := range fs.Workers {
		fmt.Printf("  worker %-8s epoch=%d shards=%v\n", w.Identity, w.EpochSeq, w.Shards)
	}
	lagged := 0
	for _, s := range fs.Shards {
		if s.Lag > 0 {
			lagged++
		}
	}
	fmt.Printf("  %d shards, %d with durability lag, %d replay flows buffered\n",
		len(fs.Shards), lagged, fs.ReplayFlows)
	return nil
}

// singleProcess runs the same flows through one local runtime and returns
// the encoded checkpoint bytes.
func singleProcess(rib *bgp.RIB, members []core.MemberInfo, start time.Time, flows []spoofscope.Flow) ([]byte, error) {
	p, _, err := core.RebuildPipeline(nil, rib, members, core.Options{})
	if err != nil {
		return nil, err
	}
	rt, err := core.NewRuntime(core.RuntimeConfig{Pipeline: p, Start: start, Bucket: time.Hour})
	if err != nil {
		return nil, err
	}
	drained := make(chan struct{})
	go func() { defer close(drained); rt.RunParallel(context.Background(), 0, nil) }()
	for _, f := range flows {
		if !rt.IngestWait(f) {
			return nil, fmt.Errorf("reference runtime closed mid-feed")
		}
	}
	var buf bytes.Buffer
	for deadline := time.Now().Add(10 * time.Second); ; {
		buf.Reset()
		if err := rt.WriteCheckpoint(&buf); err == nil {
			break
		} else if time.Now().After(deadline) {
			return nil, fmt.Errorf("reference never quiescent: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	rt.Close()
	<-drained
	return buf.Bytes(), nil
}

func joined(tel *obs.Telemetry, name string) bool {
	for _, e := range tel.Journal.Events() {
		if e.Kind == obs.EventWorkerJoin && strings.HasPrefix(e.Msg, name+" ") {
			return true
		}
	}
	return false
}
