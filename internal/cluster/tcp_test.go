package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spoofscope/internal/core"
	"spoofscope/internal/faultnet"
	"spoofscope/internal/obs"
)

// The TCP suite runs the cluster over a real loopback transport — kernel
// sockets, faultnet on the accepted conns — instead of net.Pipe. It is the
// deployment shape cmd/spoofscope-worker uses, so the byte-identity contract
// is proven on the wire it ships on.

func joinCount(tel *obs.Telemetry) int {
	n := 0
	for _, e := range tel.Journal.Events() {
		if e.Kind == obs.EventWorkerJoin {
			n++
		}
	}
	return n
}

// startTCPWorker runs a worker on clk — its coordinator's — that dials addr
// over TCP, with the suite's heartbeat and redial settings filled in around
// cfg. The returned kill cancels it and waits for it to exit — process death;
// cleanup does the same.
func startTCPWorker(t *testing.T, addr string, clk clock, cfg WorkerConfig) (w *Worker, kill func()) {
	t.Helper()
	cfg.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	cfg.HeartbeatInterval = 20 * time.Millisecond
	cfg.InitialBackoff = 5 * time.Millisecond
	cfg.MaxBackoff = 50 * time.Millisecond
	cfg.Seed = int64(len(cfg.Name))
	w, err := newWorker(cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	kill = func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Errorf("TCP worker %s did not stop", cfg.Name)
		}
	}
	t.Cleanup(kill)
	return w, kill
}

// TestClusterTCPChaos: two authenticated workers over TCP loopback with
// compression on, one link silenced mid-feed and one accept failure injected
// into the serve loop when its worker redials. The merged checkpoint must
// still be byte-identical to the fault-free single-process run.
func TestClusterTCPChaos(t *testing.T) {
	flows := testFlows(2000)
	want := singleProcessCheckpoint(t, testTrace(flows))

	tel := obs.NewTelemetry()
	secret := []byte("tcp-chaos-secret")
	coord, clk := newVirtualCoordinator(t, Config{
		Shards:            4,
		Members:           testMembers,
		Start:             tcStart,
		Bucket:            time.Hour,
		HeartbeatInterval: 20 * time.Millisecond,
		Secret:            secret,
		Compress:          true,
		LedgerPath:        filepath.Join(t.TempDir(), "shards.ledger"),
		Telemetry:         tel,
	})

	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inner.Close() })
	faulty := faultnet.WrapListener(inner, nil)
	faulty.SetAcceptPlan(func(i int) error {
		if i == 2 {
			// The silenced worker's first redial dies in accept: the serve
			// loop must survive it and the worker must dial again.
			return errors.New("injected accept failure")
		}
		return nil
	})
	ln := newCutListener(faulty)
	go coord.Serve(ln)
	addr := inner.Addr().String()

	// One at a time, so the first accepted link is w0's and the second w1's.
	w0, _ := startTCPWorker(t, addr, clk, WorkerConfig{Name: "w0", Secret: secret, Telemetry: tel})
	await(t, "w0 joined over TCP", func() bool { return joinCount(tel) == 1 })
	startTCPWorker(t, addr, clk, WorkerConfig{Name: "w1", Secret: secret, Telemetry: tel})
	await(t, "w1 joined over TCP", func() bool { return joinCount(tel) == 2 })
	<-ln.cuts
	w1 := <-ln.cuts

	if _, err := coord.DistributeEpoch(testRIB()); err != nil {
		t.Fatal(err)
	}
	awaitOwners(t, coord, "w0", "w1")
	for _, f := range flows[:1000] {
		coord.Ingest(f)
	}
	// w1's link goes silent towards the coordinator; once the deadline has
	// passed on the coordinator's clock its shards hand off to w0.
	w1.stall()
	elapse(t, coord, clk, "silent TCP link declared dead", func() bool { return coord.Stats().Handoffs > 0 }, w0)
	for _, f := range flows[1000:] {
		coord.Ingest(f)
	}

	if !bytes.Equal(checkpointBytes(t, coord, clk), want) {
		t.Fatal("checkpoint diverged over TCP with faults injected")
	}
	st := coord.Stats()
	if st.FlowsRouted != uint64(len(flows)) || st.ReplayFlows != 0 || st.Orphaned != 0 || st.ReportMismatches != 0 {
		t.Fatalf("cursor invariant broken over TCP: %+v", st)
	}
	// The redial the accept failure hits can land after the checkpoint (w0
	// carries every shard meanwhile), and ledger writes are asynchronous.
	waitStats(t, coord, "the injected accept failure survived", func(st Stats) bool { return st.AcceptErrors > 0 })
	waitStats(t, coord, "a ledger snapshot written", func(st Stats) bool { return st.LedgerWrites > 0 })
}

// TestStandbyTakeover: a warm standby tails the primary's ledger, takes
// over the listen address when the primary dies, re-admits the redialing
// workers by identity, and finishes the run with a checkpoint
// byte-identical to the fault-free single-process one.
func TestStandbyTakeover(t *testing.T) {
	flows := testFlows(1600)
	want := singleProcessCheckpoint(t, testTrace(flows))

	tel := obs.NewTelemetry()
	secret := []byte("standby-secret")
	cfg := Config{
		Shards:            4,
		Members:           testMembers,
		Start:             tcStart,
		Bucket:            time.Hour,
		HeartbeatInterval: 20 * time.Millisecond,
		Secret:            secret,
		LedgerPath:        filepath.Join(t.TempDir(), "shards.ledger"),
		Telemetry:         tel,
	}
	primary, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := inner.Addr().String()
	go primary.Serve(inner)

	// The standby races for the concrete address the primary holds; the
	// bind succeeds only once the primary's listener is gone.
	sctx, scancel := context.WithCancel(context.Background())
	defer scancel()
	type promotion struct {
		coord *Coordinator
		ln    net.Listener
		err   error
	}
	promoted := make(chan promotion, 1)
	go func() {
		coord, ln, err := RunStandby(sctx, StandbyConfig{
			Coordinator: cfg,
			Listen:      func() (net.Listener, error) { return net.Listen("tcp", addr) },
		})
		promoted <- promotion{coord, ln, err}
	}()

	startTCPWorker(t, addr, wallClock{}, WorkerConfig{Name: "w0", Secret: secret, Telemetry: tel})
	startTCPWorker(t, addr, wallClock{}, WorkerConfig{Name: "w1", Secret: secret, Telemetry: tel})
	await(t, "both workers joined the primary", func() bool { return joinCount(tel) >= 2 })
	if _, err := primary.DistributeEpoch(testRIB()); err != nil {
		t.Fatal(err)
	}
	for _, f := range flows[:800] {
		primary.Ingest(f)
	}
	await(t, "primary persisted the ledger", func() bool { return primary.Stats().LedgerWrites > 0 })

	// Primary death: close the coordinator first (its ledger writer drains
	// and stops — no one writes the file after this), then release the
	// address so the standby's bind can win.
	primary.Close()
	inner.Close()

	var p promotion
	select {
	case p = <-promoted:
	case <-time.After(10 * time.Second):
		t.Fatal("standby never promoted")
	}
	if p.err != nil {
		t.Fatalf("standby promotion failed: %v", p.err)
	}
	t.Cleanup(p.coord.Close)
	t.Cleanup(func() { p.ln.Close() })
	go p.coord.Serve(p.ln)

	if p.coord.EpochSeq() == 0 {
		if _, err := p.coord.DistributeEpoch(testRIB()); err != nil {
			t.Fatal(err)
		}
	}
	restored := p.coord.Stats().FlowsRouted
	if restored > 800 {
		t.Fatalf("standby restored %d flows routed, only 800 were fed", restored)
	}
	for _, f := range flows[restored:] {
		p.coord.Ingest(f)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cp, err := p.coord.Checkpoint(ctx)
	if err != nil {
		t.Fatalf("post-takeover checkpoint: %v", err)
	}
	var buf bytes.Buffer
	if err := core.EncodeCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("checkpoint diverged across a standby takeover")
	}
	st := p.coord.Stats()
	if st.FlowsRouted != uint64(len(flows)) || st.ReplayFlows != 0 || st.Orphaned != 0 || st.ReportMismatches != 0 {
		t.Fatalf("cursor invariant broken across takeover: %+v", st)
	}
	// The checkpoint only needs the workers that own shards, so it can
	// complete before the second worker's redial lands; registration is
	// asynchronous and gets a bounded window.
	await(t, "both workers back after takeover", func() bool { return p.coord.Stats().Workers == 2 })
	takeovers := 0
	reclaims := false
	for _, e := range tel.Journal.Events() {
		switch e.Kind {
		case obs.EventTakeover:
			takeovers++
		case obs.EventShardReclaim:
			reclaims = true
		}
	}
	if takeovers != 1 {
		t.Fatalf("takeovers journaled = %d, want 1", takeovers)
	}
	if restored > 0 && !reclaims {
		t.Fatalf("no shard reclaimed by identity after takeover (journal: %s)",
			strings.Join(eventKinds(tel), ","))
	}
}

func eventKinds(tel *obs.Telemetry) []string {
	var out []string
	for _, e := range tel.Journal.Events() {
		out = append(out, fmt.Sprintf("%s:%s", e.Kind, e.Msg))
	}
	return out
}
