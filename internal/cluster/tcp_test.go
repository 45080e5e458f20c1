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
// sockets, real deadlines, faultnet on the accepted conns — instead of
// net.Pipe. It is the deployment shape cmd/spoofscope-worker uses, so the
// byte-identity contract is proven on the wire it ships on.

func joinCount(tel *obs.Telemetry) int {
	n := 0
	for _, e := range tel.Journal.Events() {
		if e.Kind == obs.EventWorkerJoin {
			n++
		}
	}
	return n
}

// startTCPWorker runs a worker that dials addr over TCP, with the suite's
// heartbeat and redial settings filled in around cfg. The returned kill
// cancels it and waits for it to exit — process death; cleanup does the same.
func startTCPWorker(t *testing.T, addr string, cfg WorkerConfig) (kill func()) {
	t.Helper()
	cfg.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	cfg.HeartbeatInterval = 20 * time.Millisecond
	cfg.InitialBackoff = 5 * time.Millisecond
	cfg.MaxBackoff = 50 * time.Millisecond
	cfg.Seed = int64(len(cfg.Name))
	w, err := NewWorker(cfg)
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
	return kill
}

// TestClusterTCPChaos: two authenticated workers over TCP loopback with
// compression on, one link stalled silent by faultnet mid-run and one
// accept failure injected into the serve loop. The merged checkpoint must
// still be byte-identical to the fault-free single-process run.
func TestClusterTCPChaos(t *testing.T) {
	flows := testFlows(2000)
	want := singleProcessCheckpoint(t, flows)

	tel := obs.NewTelemetry()
	secret := []byte("tcp-chaos-secret")
	coord, err := NewCoordinator(Config{
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
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inner.Close() })
	ln := faultnet.WrapListener(inner, func(i int) faultnet.Config {
		if i == 1 {
			// The second worker's first link goes silent mid-run; the
			// coordinator must declare it dead and hand its shards off.
			// The threshold is in coordinator-side reads, which accrue a
			// few per heartbeat — keep it low enough to fire mid-feed.
			return faultnet.Config{Seed: 9, StallAfterReads: 12}
		}
		return faultnet.Config{}
	})
	ln.SetAcceptPlan(func(i int) error {
		if i == 2 {
			// The stalled worker's first redial dies in accept: the serve
			// loop must survive it and the worker must dial again.
			return errors.New("injected accept failure")
		}
		return nil
	})
	go coord.Serve(ln)
	addr := inner.Addr().String()

	startTCPWorker(t, addr, WorkerConfig{Name: "w0", Secret: secret, Telemetry: tel})
	startTCPWorker(t, addr, WorkerConfig{Name: "w1", Secret: secret, Telemetry: tel})
	await(t, "both workers joined over TCP", func() bool { return joinCount(tel) >= 2 })

	if _, err := coord.DistributeEpoch(testRIB()); err != nil {
		t.Fatal(err)
	}
	for i, f := range flows {
		coord.Ingest(f)
		if i%250 == 249 {
			// Pace the feed across heartbeat intervals so the stall and the
			// redial happen mid-run.
			time.Sleep(30 * time.Millisecond)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cp, err := coord.Checkpoint(ctx)
	if err != nil {
		t.Fatalf("TCP cluster checkpoint: %v", err)
	}
	var buf bytes.Buffer
	if err := core.EncodeCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("checkpoint diverged over TCP with faults injected")
	}
	st := coord.Stats()
	if st.FlowsRouted != uint64(len(flows)) || st.ReplayFlows != 0 || st.Orphaned != 0 || st.ReportMismatches != 0 {
		t.Fatalf("cursor invariant broken over TCP: %+v", st)
	}
	if st.Handoffs == 0 {
		t.Fatalf("stalled TCP link produced no handoffs: %+v", st)
	}
	if st.AcceptErrors == 0 {
		t.Fatalf("injected accept failure never hit the serve loop: %+v", st)
	}
	if st.LedgerWrites == 0 {
		t.Fatalf("no ledger snapshot written during the TCP run: %+v", st)
	}
}

// TestStandbyTakeover: a warm standby tails the primary's ledger, takes
// over the listen address when the primary dies, re-admits the redialing
// workers by identity, and finishes the run with a checkpoint
// byte-identical to the fault-free single-process one.
func TestStandbyTakeover(t *testing.T) {
	flows := testFlows(1600)
	want := singleProcessCheckpoint(t, flows)

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
			Poll:        20 * time.Millisecond,
		})
		promoted <- promotion{coord, ln, err}
	}()

	startTCPWorker(t, addr, WorkerConfig{Name: "w0", Secret: secret, Telemetry: tel})
	startTCPWorker(t, addr, WorkerConfig{Name: "w1", Secret: secret, Telemetry: tel})
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
