package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/core"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
	"spoofscope/internal/obs"
)

var tcStart = time.Unix(1486252800, 0).UTC() // 2017-02-05, the paper's window

// testRIB mirrors the hand-built routing view the core package tests use:
// tier-1s AS10/AS20, members AS100 (port 1, 50.1/16), AS200 (port 2,
// 60.1/16), AS300 (port 3, 70.1/16, customer of AS100).
func testRIB() *bgp.RIB {
	r := bgp.NewRIB()
	add := func(prefix string, path ...bgp.ASN) {
		r.AddAnnouncement(netx.MustParsePrefix(prefix), path)
	}
	add("70.1.0.0/16", 100, 300)
	add("70.1.0.0/16", 10, 100, 300)
	add("70.1.0.0/16", 20, 10, 100, 300)
	add("50.1.0.0/16", 10, 100)
	add("50.1.0.0/16", 20, 10, 100)
	add("60.1.0.0/16", 20, 200)
	add("60.1.0.0/16", 10, 20, 200)
	add("80.0.0.0/12", 20, 10)
	add("81.0.0.0/12", 10, 20)
	return r
}

var testMembers = []core.MemberInfo{
	{ASN: 100, Port: 1},
	{ASN: 200, Port: 2},
	{ASN: 300, Port: 3},
}

// testFlows builds a deterministic traffic mix across all three members:
// own-prefix (valid), bogon, unrouted, and other-member (invalid) sources,
// varied sizes, ports (incl. NTP), protocols, and timestamps spanning
// buckets — every aggregate dimension the checkpoint codec serializes.
func testFlows(n int) []ipfix.Flow {
	rng := rand.New(rand.NewSource(7))
	ownPrefix := map[uint32]string{1: "50.1", 2: "60.1", 3: "70.1"}
	flows := make([]ipfix.Flow, n)
	for i := range flows {
		ingress := uint32(1 + rng.Intn(3))
		var src string
		switch rng.Intn(8) {
		case 0:
			src = "10.1.2.3" // bogon
		case 1:
			src = "99.1.2.3" // unrouted
		case 2:
			src = ownPrefix[uint32(1+rng.Intn(3))] + ".9.9" // maybe another member's space
		default:
			src = ownPrefix[ingress] + ".4.4"
		}
		f := ipfix.Flow{
			Start:    tcStart.Add(time.Duration(rng.Intn(180)) * time.Minute),
			SrcAddr:  netx.MustParseAddr(src),
			DstAddr:  netx.MustParseAddr(ownPrefix[uint32(1+rng.Intn(3))] + ".0.9"),
			SrcPort:  uint16(1024 + rng.Intn(60000)),
			DstPort:  uint16(80),
			Protocol: ipfix.ProtoTCP,
			Packets:  uint64(1 + rng.Intn(9)),
			Bytes:    uint64(40 + rng.Intn(1460)),
			Ingress:  ingress,
			Egress:   uint32(1 + rng.Intn(3)),
		}
		switch rng.Intn(5) {
		case 0: // NTP trigger/response shapes
			f.Protocol = ipfix.ProtoUDP
			f.SrcPort, f.DstPort = 123, uint16(1024+rng.Intn(60000))
		case 1:
			f.Protocol = ipfix.ProtoUDP
			f.SrcPort, f.DstPort = uint16(1024+rng.Intn(60000)), 123
		case 2:
			f.Protocol = ipfix.ProtoICMP
			f.SrcPort, f.DstPort = 0, 0
		}
		flows[i] = f
	}
	return flows
}

// singleProcessCheckpoint is the fault-free oracle: one runtime, one
// compiled pipeline, a full drain, one canonical checkpoint encoding.
func singleProcessCheckpoint(t *testing.T, flows []ipfix.Flow) []byte {
	t.Helper()
	p, _, err := core.RebuildPipeline(nil, testRIB(), testMembers, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(core.RuntimeConfig{Pipeline: p, Start: tcStart, Bucket: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); rt.RunParallel(context.Background(), 0, nil) }()
	for _, f := range flows {
		if !rt.IngestBatchWait([]ipfix.Flow{f}) {
			t.Fatal("reference runtime closed mid-feed")
		}
	}
	buf := quiescentCheckpoint(t, rt)
	rt.Close()
	<-done
	return buf
}

func quiescentCheckpoint(t *testing.T, rt *core.Runtime) []byte {
	t.Helper()
	var buf bytes.Buffer
	await(t, "reference runtime quiescent", func() bool {
		buf.Reset()
		return rt.WriteCheckpoint(&buf) == nil
	})
	return buf.Bytes()
}

// await polls cond until it holds, and fails the test if that takes more
// than ten seconds — for state another goroutine is about to reach (a join,
// a redial landing, a ledger write, a counter settling), where asserting at
// once would race it. It is the cluster suite's one way to wait on a
// condition.
func await(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: still not so after 10s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// vclock is the cluster tests' clock: time stands still until the test moves
// it, and a move fires — synchronously and in time order — every tick it
// crosses: the coordinator's and each worker session's. A fault therefore
// lands where the test puts it, not where a pacing sleep happened to.
type vclock struct {
	mu   sync.Mutex
	t    time.Time
	subs []*vtick
}

// vtick is one subscriber to a vclock.
type vtick struct {
	next time.Time
	d    time.Duration
	stop <-chan struct{}
	fn   func(time.Time)
}

func (c *vclock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *vclock) every(d time.Duration, stop <-chan struct{}, fn func(time.Time)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.subs = append(c.subs, &vtick{next: c.t.Add(d), d: d, stop: stop, fn: fn})
}

// ticking counts the subscribers whose stop has not closed.
func (c *vclock) ticking() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prune()
	return len(c.subs)
}

// prune drops the subscribers whose stop has closed: each worker session
// subscribes anew, and a redial must not leave its old session ticking.
func (c *vclock) prune() {
	c.subs = slices.DeleteFunc(c.subs, func(s *vtick) bool {
		select {
		case <-s.stop:
			return true
		default:
			return false
		}
	})
}

// advance moves time on by d, firing the due ticks earliest first (ties in
// the order they subscribed).
func (c *vclock) advance(d time.Duration) {
	c.mu.Lock()
	end := c.t.Add(d)
	for {
		c.prune()
		var due *vtick
		for _, s := range c.subs {
			if !s.next.After(end) && (due == nil || s.next.Before(due.next)) {
				due = s
			}
		}
		if due == nil {
			break
		}
		c.t, due.next = due.next, due.next.Add(due.d)
		now := c.t
		c.mu.Unlock()
		due.fn(now)
		c.mu.Lock()
	}
	c.t = end
	c.mu.Unlock()
}

// run keeps time moving at the wall clock's pace, d at a time, until the
// returned stop is called — how a test lets a run converge once its faults
// have fired.
func (c *vclock) run(d time.Duration) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.advance(d)
			case <-done:
				return
			}
		}
	}()
	return func() { close(done); <-exited }
}

// newVirtualCoordinator builds a coordinator on a virtual clock starting at
// tcStart; cleanup closes it.
func newVirtualCoordinator(t testing.TB, cfg Config) (*Coordinator, *vclock) {
	t.Helper()
	clk := &vclock{t: tcStart}
	c, err := newCoordinator(cfg, nil, clk)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, clk
}

// elapse moves a virtual cluster's clock on one heartbeat interval at a time
// until cond holds. Before each step it waits until the coordinator and every
// worker in live have heard each other within the last interval, so the
// step's ticks find those links live at both ends and only the silent ones
// dead.
func elapse(t testing.TB, c *Coordinator, clk *vclock, what string, cond func() bool, live ...*Worker) {
	t.Helper()
	interval := c.cfg.interval()
	for step := 0; !cond(); step++ {
		if step > 10*int(c.book.deadline/interval) {
			t.Fatalf("%s: still not so after %d heartbeat intervals", what, step)
		}
		since := clk.now().Add(-interval)
		await(t, "live links heard at both ends", func() bool {
			heard := 0
			for _, st := range c.FleetStatus().Workers {
				for _, w := range live {
					if st.Identity == w.identity() && !st.LastSeen.Before(since) && !w.heard().Before(since) {
						heard++
					}
				}
			}
			return heard == len(live)
		})
		clk.advance(interval)
	}
}

// heard is when the worker's current link last read a frame.
func (w *Worker) heard() time.Time {
	w.lmu.Lock()
	defer w.lmu.Unlock()
	return w.link.heard
}

// awaitOwners waits until every named worker owns at least one shard — a
// late joiner's shards arrive by graceful moves, after its join.
func awaitOwners(t testing.TB, c *Coordinator, names ...string) {
	t.Helper()
	await(t, "every worker owns a shard", func() bool {
		owners := 0
		for _, w := range c.FleetStatus().Workers {
			if slices.Contains(names, w.Identity) && w.Shards > 0 {
				owners++
			}
		}
		return owners == len(names)
	})
}

// cut is a link that goes silent on demand: once stalled, reads on either of
// its ends block — a peer that stops talking without closing — until either
// end is closed, which fails both.
type cut struct {
	stalled, closed      chan struct{}
	stallOnce, closeOnce sync.Once
}

func newCut() *cut { return &cut{stalled: make(chan struct{}), closed: make(chan struct{})} }

func (c *cut) stall() { c.stallOnce.Do(func() { close(c.stalled) }) }

func (c *cut) wrap(conn net.Conn) net.Conn { return &cutConn{Conn: conn, cut: c} }

type cutConn struct {
	net.Conn
	cut *cut
}

func (c *cutConn) Read(b []byte) (int, error) {
	select {
	case <-c.cut.stalled:
		<-c.cut.closed
		return 0, net.ErrClosed
	default:
		return c.Conn.Read(b)
	}
}

func (c *cutConn) Close() error {
	c.cut.closeOnce.Do(func() { close(c.cut.closed) })
	return c.Conn.Close()
}

// cutListener wraps every connection it accepts in a cut of its own and hands
// the cuts out in accept order.
type cutListener struct {
	net.Listener
	cuts chan *cut
}

func newCutListener(ln net.Listener) *cutListener {
	// Room for every accept a test makes, redials included, so Accept never
	// waits on a test that reads only the first few cuts.
	return &cutListener{Listener: ln, cuts: make(chan *cut, 64)}
}

func (l *cutListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := newCut()
	select {
	case l.cuts <- c:
	default:
	}
	return c.wrap(conn), nil
}

// testCluster wires an in-process coordinator and workers over net.Pipe.
// wrapDial, when non-nil, intercepts each new connection pair (worker
// index, coordinator side, worker side) and returns the conns actually
// used — the hook chaos tests use to inject faults on specific links.
type testCluster struct {
	t        *testing.T
	tel      *obs.Telemetry
	cfg      Config
	wrapDial func(worker int, coordSide, workerSide net.Conn) (net.Conn, net.Conn)
	// tuneWorker, when non-nil, sees each worker before it runs — where a
	// test installs hooks.
	tuneWorker func(*Worker)

	// clk is the cluster's virtual clock (newVirtualCluster), nil on the
	// wall clock.
	clk *vclock

	mu      sync.Mutex
	coord   *Coordinator // replaced by restartCoordinator; read under mu
	workers map[int]*Worker
	cancels map[int]context.CancelFunc
	runDone map[int]chan struct{}
	conns   map[int]net.Conn // latest worker-side conn per worker
}

// coordinator returns the current coordinator (it changes across a
// restart).
func (tc *testCluster) coordinator() *Coordinator {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.coord
}

func newTestCluster(t *testing.T, shards int) *testCluster {
	return newTestClusterWith(t, shards, nil)
}

// newTestClusterWith lets a test adjust the coordinator configuration (set
// a ledger path, a secret, compression) before construction.
func newTestClusterWith(t *testing.T, shards int, mod func(*Config)) *testCluster {
	t.Helper()
	tc := newTestClusterOf(t, shards)
	if mod != nil {
		mod(&tc.cfg)
	}
	coord, err := NewCoordinator(tc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.coord = coord
	t.Cleanup(func() { tc.coordinator().Close() })
	return tc
}

// newVirtualCluster is a test cluster whose coordinator runs on a virtual
// clock: nothing ticks until the test calls elapse, and checkpointBytes lets
// time run while it waits.
func newVirtualCluster(t *testing.T, shards int) *testCluster {
	t.Helper()
	tc := newTestClusterOf(t, shards)
	tc.coord, tc.clk = newVirtualCoordinator(t, tc.cfg)
	return tc
}

func newTestClusterOf(t *testing.T, shards int) *testCluster {
	tel := obs.NewTelemetry()
	return &testCluster{
		t: t, tel: tel,
		cfg: Config{
			Shards:            shards,
			Members:           testMembers,
			Start:             tcStart,
			Bucket:            time.Hour,
			HeartbeatInterval: 20 * time.Millisecond,
			Telemetry:         tel,
		},
		workers: make(map[int]*Worker),
		cancels: make(map[int]context.CancelFunc),
		runDone: make(map[int]chan struct{}),
		conns:   make(map[int]net.Conn),
	}
}

// elapse moves the virtual cluster's clock until cond holds, with the
// workers of the indices in live kept heard (see elapse).
func (tc *testCluster) elapse(what string, cond func() bool, live ...int) {
	tc.t.Helper()
	var workers []*Worker
	tc.mu.Lock()
	for _, i := range live {
		workers = append(workers, tc.workers[i])
	}
	tc.mu.Unlock()
	elapse(tc.t, tc.coordinator(), tc.clk, what, cond, workers...)
}

// killCoordinator simulates coordinator process death: the coordinator is
// closed without a ledger sync (Close is crash-equivalent), every worker
// link collapses, and workers begin redialing into the void.
func (tc *testCluster) killCoordinator() {
	tc.mu.Lock()
	coord := tc.coord
	tc.mu.Unlock()
	coord.Close()
}

// restartCoordinator builds a replacement coordinator from the same
// configuration — with a LedgerPath set it resumes from the persisted
// ledger. Redialing workers reach it because the dial closure re-reads
// tc.coord on every attempt. Returns the restored feed position.
func (tc *testCluster) restartCoordinator() uint64 {
	tc.t.Helper()
	coord, err := NewCoordinator(tc.cfg)
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.mu.Lock()
	tc.coord = coord
	tc.mu.Unlock()
	return coord.Stats().FlowsRouted
}

func (tc *testCluster) startWorker(i int) {
	tc.t.Helper()
	dial := func() (net.Conn, error) {
		coordSide, workerSide := net.Pipe()
		if tc.wrapDial != nil {
			coordSide, workerSide = tc.wrapDial(i, coordSide, workerSide)
		}
		tc.mu.Lock()
		tc.conns[i] = workerSide
		coord := tc.coord // re-read: a restarted coordinator replaces it
		tc.mu.Unlock()
		coord.AddConn(coordSide)
		return workerSide, nil
	}
	var clk clock = wallClock{}
	if tc.clk != nil {
		clk = tc.clk
	}
	w, err := newWorker(WorkerConfig{
		Name:              "w" + string(rune('0'+i)),
		Dial:              dial,
		HeartbeatInterval: 20 * time.Millisecond,
		InitialBackoff:    5 * time.Millisecond,
		MaxBackoff:        50 * time.Millisecond,
		Seed:              int64(i),
		Telemetry:         tc.tel,
	}, clk)
	if err != nil {
		tc.t.Fatal(err)
	}
	if tc.tuneWorker != nil {
		tc.tuneWorker(w)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	tc.mu.Lock()
	tc.workers[i] = w
	tc.cancels[i] = cancel
	tc.runDone[i] = done
	tc.mu.Unlock()
	tc.t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			tc.t.Error("worker did not stop")
		}
	})
	// Wait for the join: on one CPU the test goroutine can otherwise feed
	// the whole run before the worker's Hello is ever scheduled.
	await(tc.t, w.label()+" joined", func() bool { return tc.hasJoined(w.label()) })
}

func (tc *testCluster) hasJoined(name string) bool {
	for _, e := range tc.tel.Journal.Events() {
		if e.Kind == obs.EventWorkerJoin && strings.HasPrefix(e.Msg, name+" ") {
			return true
		}
	}
	return false
}

// killWorker cancels a worker outright — process death. Its runtimes stop
// and its link collapses; the coordinator must hand its shards off.
func (tc *testCluster) killWorker(i int) {
	tc.t.Helper()
	tc.mu.Lock()
	cancel := tc.cancels[i]
	done := tc.runDone[i]
	tc.mu.Unlock()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		tc.t.Fatal("killed worker did not exit")
	}
}

// dropLink closes a worker's current connection — a transport failure.
// The worker itself survives and redials.
func (tc *testCluster) dropLink(i int) {
	tc.mu.Lock()
	conn := tc.conns[i]
	tc.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

func (tc *testCluster) distribute(rib *bgp.RIB) uint64 {
	tc.t.Helper()
	seq, err := tc.coordinator().DistributeEpoch(rib)
	if err != nil {
		tc.t.Fatal(err)
	}
	return seq
}

func (tc *testCluster) checkpointBytes() []byte {
	tc.t.Helper()
	return checkpointBytes(tc.t, tc.coordinator(), tc.clk)
}

// checkpointBytes takes a coordinator's merged checkpoint and encodes it. On
// a virtual clock (clk non-nil) time runs meanwhile: the faults have fired,
// and the run converges the way it would in production.
func checkpointBytes(t testing.TB, c *Coordinator, clk *vclock) []byte {
	t.Helper()
	if clk != nil {
		defer clk.run(c.cfg.interval())()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cp, err := c.Checkpoint(ctx)
	if err != nil {
		t.Fatalf("cluster checkpoint: %v", err)
	}
	var buf bytes.Buffer
	if err := core.EncodeCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertCursorInvariant checks the exactly-once book-keeping after a
// checkpoint: every flow routed is durably reported (nothing buffered) and
// no shard is orphaned.
func (tc *testCluster) assertCursorInvariant(fed int) {
	tc.t.Helper()
	st := tc.coordinator().Stats()
	if st.FlowsRouted != uint64(fed) {
		tc.t.Fatalf("routed %d flows, fed %d", st.FlowsRouted, fed)
	}
	if st.ReplayFlows != 0 {
		tc.t.Fatalf("%d flows still in replay after checkpoint", st.ReplayFlows)
	}
	if st.Orphaned != 0 {
		tc.t.Fatalf("%d shards orphaned after checkpoint", st.Orphaned)
	}
	// The coordinator checks every report's cursor against the Processed
	// count in the checkpoint it carries; whatever was done to the links, no
	// worker may ever have sent one that disagreed.
	if st.ReportMismatches != 0 {
		tc.t.Fatalf("%d reports claimed a cursor their checkpoint did not have", st.ReportMismatches)
	}
}

func TestShardOfStableAndBounded(t *testing.T) {
	seen := make(map[int]int)
	for port := uint32(0); port < 1000; port++ {
		s := ShardOf(port, 7)
		if s < 0 || s >= 7 {
			t.Fatalf("ShardOf(%d, 7) = %d out of range", port, s)
		}
		if s != ShardOf(port, 7) {
			t.Fatalf("ShardOf(%d) unstable", port)
		}
		seen[s]++
	}
	for s := 0; s < 7; s++ {
		if seen[s] == 0 {
			t.Fatalf("shard %d never used across 1000 ports", s)
		}
	}
}

// frameBody is what readFrame hands a decoder: a wire-ready frame's body, its
// length prefix checked on the way.
func frameBody(t *testing.T, frame []byte) []byte {
	t.Helper()
	if n := binary.BigEndian.Uint32(frame); int(n) != len(frame)-frameHeadLen {
		t.Fatalf("length prefix %d on a %d-byte body", n, len(frame)-frameHeadLen)
	}
	return frame[frameHeadLen:]
}

func TestWireRoundTrip(t *testing.T) {
	for _, seed := range wireSeeds() {
		got, err := decodeFrame(frameBody(t, seed.frame))
		if err != nil || !reflect.DeepEqual(got, seed.want) {
			t.Fatalf("type %d round trip: got %+v, %v\nwant %+v", seed.frame[frameHeadLen], got, err, seed.want)
		}
	}

	// Re-stamping a cached epoch frame must change only trace+ship.
	em := wireSeeds()[0].want.(epochMsg)
	stamped, err := decodeEpoch(frameBody(t, stampEpochFrame(frameBody(t, encodeEpoch(em)), 0xBEEF, 777)))
	if err != nil {
		t.Fatal(err)
	}
	if stamped.trace != 0xBEEF || stamped.shipNanos != 777 ||
		stamped.seq != em.seq || len(stamped.anns) != len(em.anns) {
		t.Fatalf("stamped epoch mismatch: %+v", stamped)
	}

	// A flag byte other than 0 or 1 is refused: it would decode to a message
	// that encodes to other bytes. So is a flow frame whose record count
	// disagrees with its length.
	bump := frameBody(t, encodeEpoch(epochMsg{seq: 10}))
	bump[1+3*8] = 2 // full, after seq, trace and ship time
	report := frameBody(t, encodeReport(reportMsg{shard: 1, checkpoint: []byte("x")}))
	report[1+4] = 2 // final, after the shard
	for _, body := range append([][]byte{bump, report}, miscountedFlowFrames()...) {
		if m, err := decodeFrame(body); err == nil {
			t.Fatalf("malformed type %d frame decoded to %+v", body[0], m)
		}
	}
}

// sinkConn is a worker connection that swallows writes, counting them and
// keeping the last.
type sinkConn struct {
	net.Conn
	writes atomic.Int64
	last   []byte
}

func (c *sinkConn) Close() error { return nil }
func (c *sinkConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	c.last = append(c.last[:0], b...)
	return len(b), nil
}

// TestFlowFrameIsOneWriteAndNoAllocation pins the coordinator's per-frame
// cost on the flow plane: the book's flushToOwner builds each frame behind a
// reserved length prefix in a buffer the link's writer handed back, so a
// frame is exactly one Write and, once the buffers exist, no allocation —
// and still reads back as the batch that went in.
func TestFlowFrameIsOneWriteAndNoAllocation(t *testing.T) {
	for _, compress := range []bool{false, true} {
		c, _ := newVirtualCoordinator(t, Config{
			Shards: 1, Members: testMembers, Start: tcStart, Bucket: time.Hour,
			FlowBatch: 512, Compress: compress,
		})
		if _, err := c.DistributeEpoch(testRIB()); err != nil { // flows ship once an epoch exists
			t.Fatal(err)
		}
		sink := &sinkConn{}
		l := newLink(sink)
		l.peer = &peer{out: l, joined: true}
		go l.writeLoop(func(error) {})
		s, flows := &c.book.shards[0], testFlows(512)
		recs := records(flows)
		var base uint64
		send := func() {
			c.mu.Lock()
			base = s.cursor
			s.replay = append(s.replay[:0], recs...)
			s.owner, s.ackBase, s.sentCursor = l.peer, base, base
			s.cursor += uint64(len(flows))
			frames := l.written.Load() + 1
			c.book.flushToOwner(s)
			c.mu.Unlock()
			for l.written.Load() != frames {
				runtime.Gosched()
			}
		}
		send() // the first frame sizes the buffer (and the deflate scratch)
		const runs = 50
		if allocs := testing.AllocsPerRun(runs, send); allocs != 0 {
			t.Errorf("compress=%v: %.1f allocations per flow frame, want 0", compress, allocs)
		}
		if got := sink.writes.Load(); got != runs+2 {
			t.Errorf("compress=%v: %d writes for %d frames", compress, got, runs+2)
		}
		if n := binary.BigEndian.Uint32(sink.last); int(n) != len(sink.last)-frameHeadLen {
			t.Fatalf("compress=%v: length prefix %d on a %d-byte body", compress, n, len(sink.last)-frameHeadLen)
		}
		var scratch flowScratch
		m, err := scratch.decode(sink.last[frameHeadLen:])
		if err != nil {
			t.Fatal(err)
		}
		if m.shard != 0 || m.base != base || len(m.flows) != len(flows) || m.flows[511] != flows[511] {
			t.Fatalf("compress=%v: frame decodes to shard %d base %d, %d flows", compress, m.shard, m.base, len(m.flows))
		}
		l.close()
	}
}

// TestCoordinatorIngestAllocatesNothing pins Ingest's own cost: one lock per
// call, and each flow encoded into its shard's replay buffer, with nothing
// allocated once the buffers have grown — whether the call carries one flow
// or a whole decoded message. The replay is compacted before every call, as
// a durable report would, so the buffers stop growing.
func TestCoordinatorIngestAllocatesNothing(t *testing.T) {
	c, _ := newVirtualCoordinator(t, Config{
		Shards: 4, Members: testMembers, Start: tcStart, Bucket: time.Hour,
	})
	flows := testFlows(64)
	compact := func() {
		c.mu.Lock()
		for i := range c.book.shards {
			s := &c.book.shards[i]
			s.replay, s.ackBase, s.sentCursor = s.replay[:0], s.cursor, s.cursor
		}
		c.mu.Unlock()
	}
	for _, tc := range []struct {
		name   string
		ingest func()
	}{
		{"one flow", func() { c.Ingest(flows[0]) }},
		{"one message", func() { c.Ingest(flows...) }},
	} {
		compact()
		tc.ingest() // grow the buffers once
		if allocs := testing.AllocsPerRun(50, func() { compact(); tc.ingest() }); allocs != 0 {
			t.Errorf("%s: %.1f allocations per Ingest call, want 0", tc.name, allocs)
		}
	}
	if st := c.Stats(); st.FlowsRouted != 52*65 {
		t.Fatalf("%d flows routed, want %d", st.FlowsRouted, 52*65)
	}
}

// TestClusterMatchesSingleProcess is the core contract: a multi-worker
// cluster's merged checkpoint is byte-identical to the single-process
// run's over the same flows.
func TestClusterMatchesSingleProcess(t *testing.T) {
	flows := testFlows(2000)
	want := singleProcessCheckpoint(t, flows)

	tc := newTestCluster(t, 4)
	tc.startWorker(0)
	tc.startWorker(1)
	tc.distribute(testRIB())
	for _, f := range flows {
		tc.coord.Ingest(f)
	}
	got := tc.checkpointBytes()
	if !bytes.Equal(got, want) {
		t.Fatalf("cluster checkpoint differs from single-process run (%d vs %d bytes)", len(got), len(want))
	}
	tc.assertCursorInvariant(len(flows))
}

// TestFlowsBeforeTheFirstEpoch: flows ingested before any routing epoch
// stay in the coordinator's replay buffers, because a worker has nothing to
// classify them under, and ship once an epoch is distributed. More flows
// than a shard queue ever held arrive first; the worker keeps its link
// throughout, and the merged checkpoint is the single-process run's.
func TestFlowsBeforeTheFirstEpoch(t *testing.T) {
	flows := testFlows(12000)
	want := singleProcessCheckpoint(t, flows)

	tc := newVirtualCluster(t, 2)
	tc.startWorker(0)
	awaitOwners(t, tc.coord, "w0")
	const early = 10000
	tc.coord.Ingest(flows[:early]...)
	ticks := 0
	tc.elapse("three ticks without an epoch", func() bool { ticks++; return ticks > 3 }, 0)
	for _, row := range tc.coord.FleetStatus().Shards {
		if row.SentCursor != 0 {
			t.Fatalf("shard %d shipped %d flows before any epoch", row.ID, row.SentCursor)
		}
	}
	tc.distribute(testRIB())
	tc.coord.Ingest(flows[early:]...)
	if got := tc.checkpointBytes(); !bytes.Equal(got, want) {
		t.Fatal("checkpoint diverged with flows ingested before the first epoch")
	}
	tc.assertCursorInvariant(len(flows))
	for _, e := range tc.tel.Journal.Events() {
		if e.Kind == obs.EventWorkerReconnect {
			t.Fatalf("the worker lost its link: %s", e.Msg)
		}
	}
	if st := tc.coord.Stats(); st.Handoffs != 0 {
		t.Fatalf("%d handoffs; the one worker should have kept every shard", st.Handoffs)
	}
}

// TestClusterResumeFromCheckpoint: a cluster run constructed with a prior
// run's checkpoint as its Resume baseline produces, after feeding the
// remaining flows, a checkpoint byte-identical to one uninterrupted
// single-process run over everything — the contract `classify -cluster`
// resume relies on.
func TestClusterResumeFromCheckpoint(t *testing.T) {
	flows := testFlows(2000)
	want := singleProcessCheckpoint(t, flows)

	baseBytes := singleProcessCheckpoint(t, flows[:1000])
	base, err := core.DecodeCheckpoint(bytes.NewReader(baseBytes))
	if err != nil {
		t.Fatal(err)
	}

	tc := newTestClusterWith(t, 4, func(cfg *Config) { cfg.Resume = base })
	tc.startWorker(0)
	tc.startWorker(1)
	tc.distribute(testRIB())
	for _, f := range flows[1000:] {
		tc.coordinator().Ingest(f)
	}
	got := tc.checkpointBytes()
	if !bytes.Equal(got, want) {
		t.Fatal("resumed cluster checkpoint diverged from the uninterrupted run")
	}
}

// TestEpochFingerprintGating: an unchanged RIB ships a sequence bump, not
// the table; a changed one ships in full. Verified through the journal, and
// through the checkpoints: after the bump every shard's report and the
// merged checkpoint state epoch 2 (Epoch and Swaps), and after the third
// distribute the merged checkpoint states 3.
func TestEpochFingerprintGating(t *testing.T) {
	tc := newTestCluster(t, 2)
	tc.startWorker(0)
	rib := testRIB()
	flows := testFlows(400)
	if seq := tc.distribute(rib); seq != 1 {
		t.Fatalf("first epoch seq = %d", seq)
	}
	for _, f := range flows[:200] {
		tc.coordinator().Ingest(f)
	}
	if seq := tc.distribute(rib); seq != 2 {
		t.Fatalf("second epoch seq = %d", seq)
	}
	for _, f := range flows[200:] {
		tc.coordinator().Ingest(f)
	}
	tc.requireEpoch(2)
	c := tc.coordinator()
	c.mu.Lock()
	reports := make([][]byte, len(c.book.shards))
	for i := range c.book.shards {
		reports[i] = c.book.shards[i].lastReport
	}
	c.mu.Unlock()
	for i, report := range reports {
		cp, err := core.DecodeCheckpointBytes(report)
		if err != nil {
			t.Fatalf("shard %d report: %v", i, err)
		}
		if cp.Epoch != 2 || cp.Swaps != 2 {
			t.Fatalf("shard %d reported epoch %d after %d swaps, want 2 and 2", i, cp.Epoch, cp.Swaps)
		}
	}
	rib.AddAnnouncement(netx.MustParsePrefix("91.0.0.0/16"), []bgp.ASN{10, 20})
	if seq := tc.distribute(rib); seq != 3 {
		t.Fatalf("third epoch seq = %d", seq)
	}
	tc.requireEpoch(3)
	var full, bump int
	for _, e := range tc.tel.Journal.Events() {
		if e.Kind != obs.EventClusterEpoch || !strings.HasPrefix(e.Msg, "epoch ") {
			continue
		}
		if strings.Contains(e.Msg, "full=true") {
			full++
		}
		if strings.Contains(e.Msg, "full=false") {
			bump++
		}
	}
	if full != 2 || bump != 1 {
		t.Fatalf("full=%d bump=%d epochs journaled, want 2 full + 1 bump", full, bump)
	}
}

// requireEpoch fails the test unless the merged checkpoint states epoch seq
// after seq swaps.
func (tc *testCluster) requireEpoch(seq uint64) {
	tc.t.Helper()
	cp, err := core.DecodeCheckpointBytes(tc.checkpointBytes())
	if err != nil {
		tc.t.Fatal(err)
	}
	if uint64(cp.Epoch) != seq || cp.Swaps != seq {
		tc.t.Fatalf("merged checkpoint states epoch %d after %d swaps, want %d and %d", cp.Epoch, cp.Swaps, seq, seq)
	}
}

// TestLateJoinerRebalances: a second worker joining a loaded cluster takes
// over shards via graceful revokes, and the merged checkpoint still
// matches the single-process run.
func TestLateJoinerRebalances(t *testing.T) {
	flows := testFlows(1500)
	want := singleProcessCheckpoint(t, flows)

	tc := newTestCluster(t, 4)
	tc.startWorker(0)
	tc.distribute(testRIB())
	for _, f := range flows[:750] {
		tc.coord.Ingest(f)
	}
	tc.startWorker(1)
	for _, f := range flows[750:] {
		tc.coord.Ingest(f)
	}
	got := tc.checkpointBytes()
	if !bytes.Equal(got, want) {
		t.Fatal("checkpoint diverged across a graceful rebalance")
	}
	tc.assertCursorInvariant(len(flows))
	if st := tc.coord.Stats(); st.Rebalances == 0 {
		t.Fatal("no rebalance happened for the late joiner")
	}
	await(tc.t, "two workers joined", func() bool { return tc.coord.Stats().Workers == 2 })
}

// TestWorkerReconnectResumes: a transport failure (link drop, worker
// alive) redials with backoff, the coordinator reassigns from the last
// durable report, and the final checkpoint is still byte-identical.
func TestWorkerReconnectResumes(t *testing.T) {
	flows := testFlows(1500)
	want := singleProcessCheckpoint(t, flows)

	tc := newTestCluster(t, 3)
	tc.startWorker(0)
	tc.distribute(testRIB())
	for _, f := range flows[:700] {
		tc.coord.Ingest(f)
	}
	tc.dropLink(0)
	for _, f := range flows[700:] {
		tc.coord.Ingest(f)
	}
	got := tc.checkpointBytes()
	if !bytes.Equal(got, want) {
		t.Fatal("checkpoint diverged across a link drop and reconnect")
	}
	tc.assertCursorInvariant(len(flows))
	if st := tc.coord.Stats(); st.Handoffs == 0 {
		for _, e := range tc.tel.Journal.Events() {
			t.Logf("journal: %s %s", e.Kind, e.Msg)
		}
		t.Fatalf("link drop did not hand shards off: %+v", st)
	}
}

// TestClusterHealthTransitions: unready before the first epoch, ok while
// owned, degraded while a shard is orphaned with buffered flows.
func TestClusterHealthTransitions(t *testing.T) {
	tc := newTestCluster(t, 2)
	if h := tc.tel.Health(); h.Ready || h.Status != "unready" {
		t.Fatalf("health before epoch = %+v", h)
	}
	tc.startWorker(0)
	tc.distribute(testRIB())
	await(tc.t, "health ok once owned", func() bool {
		h := tc.tel.Health()
		return h.Ready && h.Status == "ok"
	})
	tc.killWorker(0)
	for _, f := range testFlows(10) {
		tc.coord.Ingest(f)
	}
	await(tc.t, "health degraded after worker death", func() bool {
		h := tc.tel.Health()
		return h.Ready && h.Status == "degraded"
	})
}
