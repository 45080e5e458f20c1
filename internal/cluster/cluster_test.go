package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
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
	"spoofscope/internal/flowgen"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
	"spoofscope/internal/obs"
	"spoofscope/internal/scenario"
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

// trace is what a run is fed: the routing table every epoch distributes, the
// member table and the flows.
type trace struct {
	rib     *bgp.RIB
	members []core.MemberInfo
	flows   []ipfix.Flow
}

// testTrace is flows over the hand-built routing view.
func testTrace(flows []ipfix.Flow) trace { return trace{testRIB(), testMembers, flows} }

// singleProcessCheckpoint is the fault-free oracle: one runtime, one
// compiled pipeline, a full drain, one canonical checkpoint encoding. Once
// swapsAt[i] flows have gone in, the runtime promotes the pipeline again, as
// a cluster that distributes another epoch there does.
func singleProcessCheckpoint(t *testing.T, tr trace, swapsAt ...int) []byte {
	t.Helper()
	p, _, err := core.RebuildPipeline(nil, tr.rib, tr.members, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(core.RuntimeConfig{Pipeline: p, Start: tcStart, Bucket: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); rt.RunParallel(context.Background(), 0, nil) }()
	for i, f := range tr.flows {
		for ; len(swapsAt) > 0 && swapsAt[0] == i; swapsAt = swapsAt[1:] {
			rt.Swap(p)
		}
		if !rt.IngestBatchWait([]ipfix.Flow{f}) {
			t.Fatal("reference runtime closed mid-feed")
		}
	}
	rt.Close() // the drain exits once the queue is empty
	<-done
	var buf bytes.Buffer
	if err := rt.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
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

// testCluster wires an in-process coordinator and workers over net.Pipe, all
// on one virtual clock: nothing ticks until the test calls elapse, and
// checkpointBytes lets time run while it waits. Every link is a cut, so any
// worker's current link can be silenced.
type testCluster struct {
	t   *testing.T
	tel *obs.Telemetry
	cfg Config
	clk *vclock

	mu      sync.Mutex
	coord   *Coordinator    // replaced by restart; read under mu
	workers map[int]*Worker // the running ones: started and not killed
	cancels map[int]context.CancelFunc
	runDone map[int]chan struct{}
	conns   map[int]net.Conn // latest worker-side conn per worker
	cuts    map[int]*cut     // latest link's cut per worker
	durable []byte           // the ledger opDurable saw
}

// coordinator returns the current coordinator (it changes across a
// restart).
func (tc *testCluster) coordinator() *Coordinator {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.coord
}

// newVirtualCluster is a test cluster of the given shards over the test
// members; tweak, when non-nil, adjusts the coordinator's configuration
// before construction (members, a ledger path, a resume baseline).
func newVirtualCluster(t *testing.T, shards int, tweak func(*Config)) *testCluster {
	t.Helper()
	tel := obs.NewTelemetry()
	tc := &testCluster{
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
		cuts:    make(map[int]*cut),
	}
	if tweak != nil {
		tweak(&tc.cfg)
	}
	tc.coord, tc.clk = newVirtualCoordinator(t, tc.cfg)
	return tc
}

// elapse moves the cluster's clock until cond holds, with the workers of the
// indices in live kept heard (see elapse).
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

// running lists the indices of the workers started and not killed, in order.
func (tc *testCluster) running() []int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	var idx []int
	for i := range tc.workers {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	return idx
}

func (tc *testCluster) startWorker(i int) {
	tc.t.Helper()
	dial := func() (net.Conn, error) {
		coordSide, workerSide := net.Pipe()
		c := newCut()
		coordSide, workerSide = c.wrap(coordSide), c.wrap(workerSide)
		tc.mu.Lock()
		tc.conns[i], tc.cuts[i] = workerSide, c
		coord := tc.coord // re-read: a restarted coordinator replaces it
		tc.mu.Unlock()
		coord.AddConn(coordSide)
		return workerSide, nil
	}
	w, err := newWorker(WorkerConfig{
		Name:              "w" + string(rune('0'+i)),
		Dial:              dial,
		HeartbeatInterval: 20 * time.Millisecond,
		InitialBackoff:    5 * time.Millisecond,
		MaxBackoff:        50 * time.Millisecond,
		Seed:              int64(i),
		Telemetry:         tc.tel,
	}, tc.clk)
	if err != nil {
		tc.t.Fatal(err)
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
	cancel, done := tc.cancels[i], tc.runDone[i]
	delete(tc.workers, i)
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

// silence stalls the current link of each worker named: it goes silent both
// ways without closing. A redial gets a link of its own.
func (tc *testCluster) silence(workers ...int) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for _, i := range workers {
		tc.cuts[i].stall()
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

// checkpointBytes takes a coordinator's merged checkpoint and encodes it.
// Time runs on clk meanwhile: the faults have fired, and the run converges
// the way it would in production.
func checkpointBytes(t testing.TB, c *Coordinator, clk *vclock) []byte {
	t.Helper()
	defer clk.run(c.cfg.interval())()
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

	// Re-stamping a cached epoch frame must change only seq+trace+ship.
	em := wireSeeds()[0].want.(epochMsg)
	stamped, err := decodeEpoch(frameBody(t, stampEpochFrame(frameBody(t, encodeEpoch(em)), em.seq+3, 0xBEEF, 777)))
	if err != nil {
		t.Fatal(err)
	}
	if stamped.trace != 0xBEEF || stamped.shipNanos != 777 ||
		stamped.seq != em.seq+3 || !reflect.DeepEqual(stamped.anns, em.anns) ||
		!reflect.DeepEqual(stamped.members, em.members) {
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

// op is what a step of a cluster row's schedule does.
type op int

const (
	opEpoch     op = iota // distribute the trace's routing table
	opJoin                // start worker arg
	opOwned               // wait until every running worker owns a shard
	opKill                // kill worker arg outright: process death
	opDrop                // close worker arg's link; the worker redials
	opStall               // silence worker arg's link until the coordinator declares it dead
	opPartition           // silence every link until the coordinator declares one dead
	opIdle                // three heartbeats pass, and nothing ships: no epoch exists yet
	opDurable             // time passes until the ledger on disk holds reported progress
	opRestart             // kill the coordinator; resume a new one from its ledger
	// opRestartUnsaved kills the coordinator before any ledger write since
	// the last opDurable reaches the disk, and resumes a new one from the
	// ledger that step saw: the epochs distributed in between are lost.
	opRestartUnsaved
)

// step is op, on worker arg where it names one, once the first at flows of
// the trace have been fed.
type step struct {
	at  int
	op  op
	arg int
}

// rowCheck is a row's predicate on how its run got there.
type rowCheck func(t *testing.T, tc *testCluster)

type clusterRow struct {
	name    string
	trace   func(t *testing.T) trace // built when the row runs
	shards  int
	workers int // w0, w1, … start before the schedule
	// config tweaks the coordinator's configuration: a ledger path, or a
	// resume baseline, whose cursor the feed then starts at.
	config func(t *testing.T, tr trace, cfg *Config)
	steps  []step
	checks []rowCheck
}

// TestClusterMatchesSingleProcess is the cluster's contract as one table:
// whatever a row's schedule does to the workers, their links and the
// coordinator, the merged checkpoint is byte-identical to one fault-free
// process's over the same trace (so it states as many epochs as the
// schedule distributed), the cursor invariant holds, and so do the row's
// predicates. It all runs on the virtual clock, so a fault lands at its
// offset; a failing row reruns alone by its subtest name.
func TestClusterMatchesSingleProcess(t *testing.T) {
	handedOff := statsAre("a handoff", false, func(st Stats) bool { return st.Handoffs > 0 })
	workers := func(n int) rowCheck {
		return statsAre(fmt.Sprintf("%d workers", n), false, func(st Stats) bool { return st.Workers == n })
	}
	// A redial or a join may still be under way when the checkpoint is in.
	bothBack := statsAre("both workers back", true, func(st Stats) bool { return st.Workers == 2 })
	withLedger := func(t *testing.T, _ trace, cfg *Config) { cfg.LedgerPath = filepath.Join(t.TempDir(), "shards.ledger") }
	rows := []clusterRow{
		{name: "two-workers", trace: flowsTrace(2000), shards: 4, workers: 2,
			steps: []step{{0, opEpoch, 0}}},
		// A joiner's shards arrive by graceful moves: a victim owns some when
		// it dies. A second kill lands while replay from the first may still
		// be in flight; ownership checks must discard every zombie report.
		{name: "worker-kill", trace: flowsTrace(2000), shards: 6, workers: 3,
			steps:  []step{{0, opEpoch, 0}, {0, opOwned, 0}, {900, opKill, 1}},
			checks: []rowCheck{handedOff, workers(2)}},
		{name: "repeated-kills", trace: flowsTrace(2400), shards: 6, workers: 3,
			steps:  []step{{0, opEpoch, 0}, {0, opOwned, 0}, {800, opKill, 0}, {1600, opKill, 2}},
			checks: []rowCheck{workers(1)}},
		// A stalled link goes silent both ways without closing, the failure the
		// liveness deadline exists for; its worker drops it and redials. A
		// partition orphans every shard, which buffers until the redial heals.
		{name: "worker-stall", trace: flowsTrace(1600), shards: 4, workers: 2,
			steps:  []step{{0, opEpoch, 0}, {0, opOwned, 0}, {800, opStall, 1}},
			checks: []rowCheck{handedOff}},
		{name: "partition", trace: flowsTrace(1200), shards: 3, workers: 1,
			steps:  []step{{0, opEpoch, 0}, {600, opPartition, 0}},
			checks: []rowCheck{workers(1)}},
		{name: "link-drop", trace: flowsTrace(1500), shards: 3, workers: 1,
			steps:  []step{{0, opEpoch, 0}, {700, opDrop, 0}},
			checks: []rowCheck{handedOff}},
		// The ledger trails the feed, so the flows it had not incorporated are
		// fed again. Workers reclaim their shards by identity; one can carry
		// the checkpoint while the other is still in its redial backoff.
		{name: "coordinator-kill", trace: flowsTrace(2400), shards: 6, workers: 2,
			config: withLedger,
			steps:  []step{{0, opEpoch, 0}, {1300, opDurable, 0}, {1800, opRestart, 0}},
			checks: []rowCheck{bothBack}},
		{name: "late-join", trace: flowsTrace(1500), shards: 4, workers: 1,
			steps: []step{{0, opEpoch, 0}, {750, opJoin, 1}},
			checks: []rowCheck{statsAre("a rebalance for the late joiner", false,
				func(st Stats) bool { return st.Rebalances > 0 }), bothBack}},
		// More flows than a shard queue ever holds wait for the first epoch.
		{name: "before-first-epoch", trace: flowsTrace(12000), shards: 2, workers: 1,
			steps:  []step{{0, opOwned, 0}, {10000, opIdle, 0}, {10000, opEpoch, 0}},
			checks: []rowCheck{keptItsLinks}},
		// The unchanged table ships as a bump, which every shard must report
		// under before the merged checkpoint may state epoch 2.
		{name: "epoch-bump", trace: flowsTrace(400), shards: 2, workers: 1,
			steps: []step{{0, opEpoch, 0}, {200, opEpoch, 0}}},
		// A worker that says hello after a bump is sent the cached full epoch
		// under the bumped sequence: its reports must state epoch 2 as well,
		// or its shards stay behind and the checkpoint never completes.
		{name: "bump-then-late-join", trace: flowsTrace(1500), shards: 4, workers: 1,
			steps:  []step{{0, opEpoch, 0}, {500, opEpoch, 0}, {750, opJoin, 1}},
			checks: []rowCheck{bothBack}},
		{name: "bump-then-link-drop", trace: flowsTrace(1500), shards: 3, workers: 1,
			steps:  []step{{0, opEpoch, 0}, {400, opEpoch, 0}, {700, opDrop, 0}},
			checks: []rowCheck{handedOff}},
		// The ledger restores the bumped sequence beside the first epoch's frame.
		{name: "bump-then-coordinator-kill", trace: flowsTrace(2400), shards: 6, workers: 2,
			config: withLedger,
			steps:  []step{{0, opEpoch, 0}, {600, opEpoch, 0}, {1300, opDurable, 0}, {1800, opRestart, 0}},
			checks: []rowCheck{bothBack}},
		// A bump the ledger never held is lost with the coordinator, which
		// resumes a sequence behind its workers. Their new sessions adopt the
		// restored one (hello re-stamps the full epoch, teardown dropped what
		// they classified under the bump), so the checkpoint completes and
		// states the restored epoch.
		{name: "unsaved-bump-then-coordinator-kill", trace: flowsTrace(2400), shards: 6, workers: 2,
			config: withLedger,
			steps:  []step{{0, opEpoch, 0}, {600, opDurable, 0}, {900, opEpoch, 0}, {1800, opRestartUnsaved, 0}},
			checks: []rowCheck{bothBack}},
		{name: "resume", trace: flowsTrace(2000), shards: 4, workers: 2,
			config: func(t *testing.T, tr trace, cfg *Config) {
				tr.flows = tr.flows[:1000]
				base, err := core.DecodeCheckpointBytes(singleProcessCheckpoint(t, tr))
				if err != nil {
					t.Fatal(err)
				}
				cfg.Resume = base
			},
			steps: []step{{0, opEpoch, 0}}},
		{name: "simulated-ixp", trace: ixpTrace, shards: 4, workers: 2,
			steps:  []step{{0, opEpoch, 0}, {2000, opOwned, 0}, {2000, opKill, 1}},
			checks: []rowCheck{handedOff}},
	}
	for _, row := range rows {
		t.Run(row.name, row.run)
	}
}

// run plays the row: the single-process reference first, then the cluster
// fed the same trace with the schedule's steps at their offsets.
func (row clusterRow) run(t *testing.T) {
	tr := row.trace(t)
	// Every epoch after the first is a swap, unless a restart loses it.
	var swapsAt, unsaved []int // unsaved: epochs since the last opDurable
	epochs := 0
	keep := func() {
		for _, at := range unsaved {
			if epochs++; epochs > 1 {
				swapsAt = append(swapsAt, at)
			}
		}
		unsaved = nil
	}
	for _, s := range row.steps {
		switch s.op {
		case opEpoch:
			unsaved = append(unsaved, s.at)
		case opDurable:
			keep()
		case opRestartUnsaved:
			unsaved = nil
		}
	}
	keep()
	want := singleProcessCheckpoint(t, tr, swapsAt...)
	ref, err := core.DecodeCheckpointBytes(want)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Epoch != core.Epoch(epochs) || ref.Swaps != uint64(epochs) || ref.Agg.GrandTotal.Packets == 0 {
		t.Fatalf("reference states epoch %d after %d swaps over %d packets, want %d epochs and traffic",
			ref.Epoch, ref.Swaps, ref.Agg.GrandTotal.Packets, epochs)
	}

	tc := newVirtualCluster(t, row.shards, func(cfg *Config) {
		cfg.Members = tr.members
		if row.config != nil {
			row.config(t, tr, cfg)
		}
	})
	for i := 0; i < row.workers; i++ {
		tc.startWorker(i)
	}
	first := 0
	if base := tc.cfg.Resume; base != nil {
		first = int(base.Processed)
	}
	next := first
	feed := func(to int) {
		for ; next < to; next++ {
			tc.coordinator().Ingest(tr.flows[next])
		}
	}
	for _, s := range row.steps {
		feed(s.at)
		if s.op == opRestart || s.op == opRestartUnsaved {
			next = tc.restart(s, tr.rib)
		} else {
			tc.play(s, tr.rib)
		}
	}
	feed(len(tr.flows))
	if got := tc.checkpointBytes(); !bytes.Equal(got, want) {
		t.Fatalf("merged checkpoint differs from the single-process run's (%d vs %d bytes)", len(got), len(want))
	}
	tc.assertCursorInvariant(len(tr.flows) - first)
	for _, check := range row.checks {
		check(t, tc)
	}
}

// play does one step of a schedule.
func (tc *testCluster) play(s step, rib *bgp.RIB) {
	tc.t.Helper()
	switch s.op {
	case opEpoch:
		tc.distribute(rib)
	case opJoin:
		tc.startWorker(s.arg)
	case opOwned:
		var names []string
		for _, i := range tc.running() {
			names = append(names, "w"+string(rune('0'+i)))
		}
		awaitOwners(tc.t, tc.coordinator(), names...)
	case opKill:
		tc.killWorker(s.arg)
	case opDrop:
		tc.dropLink(s.arg)
	case opStall, opPartition:
		silent, live := []int{s.arg}, slices.DeleteFunc(tc.running(), func(i int) bool { return i == s.arg })
		if s.op == opPartition {
			silent, live = tc.running(), nil
		}
		handed := tc.coordinator().Stats().Handoffs
		tc.silence(silent...)
		tc.elapse("silenced link declared dead", func() bool { return tc.coordinator().Stats().Handoffs > handed }, live...)
	case opIdle:
		ticks := 0
		tc.elapse("three heartbeats", func() bool { ticks++; return ticks > 3 }, tc.running()...)
		for _, row := range tc.coordinator().FleetStatus().Shards {
			if row.SentCursor != 0 {
				tc.t.Fatalf("shard %d shipped %d flows before any epoch", row.ID, row.SentCursor)
			}
		}
	case opDurable:
		tc.elapse("the ledger holds reported progress", func() bool {
			body, err := os.ReadFile(tc.cfg.LedgerPath)
			if err != nil {
				return false
			}
			lg, err := decodeLedger(body)
			tc.durable = body
			return err == nil && slices.ContainsFunc(lg.shards, func(s shard) bool { return s.ackBase > 0 })
		}, tc.running()...)
	default:
		tc.t.Fatalf("step %+v: no such op", s)
	}
}

// restart kills the coordinator outright (Close is crash-equivalent: no
// ledger sync) and resumes a replacement from its ledger, on the same
// configuration and clock; redialing workers reach it because the dial
// closure re-reads tc.coord. An opRestartUnsaved step puts the ledger back
// the way its opDurable step found it first. It returns the restored feed
// position, which the feed resumes from.
func (tc *testCluster) restart(s step, rib *bgp.RIB) int {
	tc.t.Helper()
	fed := s.at
	tc.coordinator().Close()
	if s.op == opRestartUnsaved {
		if err := writeLedgerFile(tc.cfg.LedgerPath, tc.durable); err != nil {
			tc.t.Fatal(err)
		}
	}
	lg, err := loadLedgerFile(tc.cfg.LedgerPath)
	if err != nil {
		tc.t.Fatal(err)
	}
	coord, err := newCoordinator(tc.cfg, lg, tc.clk)
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.t.Cleanup(coord.Close)
	tc.mu.Lock()
	tc.coord = coord
	tc.mu.Unlock()
	restored := coord.Stats().FlowsRouted
	if restored > uint64(fed) {
		tc.t.Fatalf("ledger restored %d flows routed, only %d were fed", restored, fed)
	}
	if coord.EpochSeq() == 0 {
		tc.distribute(rib)
	}
	return int(restored)
}

// statsAre is a row predicate on the coordinator's Stats once the checkpoint
// is in; soon waits for it, for state a redial still under way settles.
func statsAre(what string, soon bool, ok func(Stats) bool) rowCheck {
	return func(t *testing.T, tc *testCluster) {
		t.Helper()
		if soon {
			await(t, what, func() bool { return ok(tc.coordinator().Stats()) })
		} else if st := tc.coordinator().Stats(); !ok(st) {
			t.Fatalf("want %s: %+v", what, st)
		}
	}
}

// keptItsLinks: no worker ever lost its link, so no shard changed hands.
func keptItsLinks(t *testing.T, tc *testCluster) {
	t.Helper()
	for _, e := range tc.tel.Journal.Events() {
		if e.Kind == obs.EventWorkerReconnect {
			t.Fatalf("a worker lost its link: %s", e.Msg)
		}
	}
	if st := tc.coordinator().Stats(); st.Handoffs != 0 {
		t.Fatalf("%d handoffs; every worker should have kept its shards", st.Handoffs)
	}
}

// flowsTrace is a row's trace of n test flows over the hand-built view.
func flowsTrace(n int) func(*testing.T) trace {
	return func(*testing.T) trace { return testTrace(testFlows(n)) }
}

// ixpTrace is the simulated IXP's first 4,000 flows over its table and
// members: the small scenario and its generated traffic.
func ixpTrace(t *testing.T) trace {
	cfg := scenario.SmallConfig()
	cfg.Seed = 1
	s, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace{rib: bgp.NewRIB()}
	for _, a := range s.Anns {
		tr.rib.AddAnnouncement(a.Prefix, a.Path)
	}
	tr.rib.Announcements() // the first read sorts the table: not under a race
	for _, m := range s.Members {
		tr.members = append(tr.members, core.MemberInfo{ASN: m.ASN, Port: m.Port})
	}
	gen := flowgen.DefaultConfig()
	gen.RegularPerBucket = 150
	flowgen.New(s, gen).Generate(func(f ipfix.Flow, _ flowgen.Label) {
		if len(tr.flows) < 4000 {
			tr.flows = append(tr.flows, f)
		}
	})
	return tr
}

// TestCheckpointAsksEachShardOnce: with flow frames still queued behind the
// coordinator's writers when Checkpoint starts, its first report round
// completes the checkpoint on its own. The clock stands still, so nothing
// re-asks — no tick's report round, no Checkpoint re-request — and each shard
// the round asks answers exactly once: every fed shard, with a report that
// covers its whole stream, and every shard a joiner took over, whose handoff
// waits for its new owner's first report.
func TestCheckpointAsksEachShardOnce(t *testing.T) {
	tr := testTrace(testFlows(20000))
	want := singleProcessCheckpoint(t, tr)
	tc := newVirtualCluster(t, 4, func(cfg *Config) { cfg.FlowBatch = 64 })
	tc.startWorker(0)
	tc.startWorker(1)
	c := tc.coordinator()
	awaitOwners(t, c, "w0", "w1")
	tc.distribute(tr.rib)
	reports := func() uint64 {
		var n uint64
		for _, f := range tc.tel.Metrics.Export() {
			if f.Name == MetricReportRTT {
				for _, s := range f.Samples {
					n += s.Histogram.Count
				}
			}
		}
		return n
	}
	before := reports()
	for _, f := range tr.flows {
		c.Ingest(f)
	}
	c.mu.Lock()
	b := c.book
	asked := b.count(func(s *shard) bool { return b.behind(s) || s.span != nil })
	c.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cp, err := c.Checkpoint(ctx)
	if err != nil {
		t.Fatalf("checkpoint on a frozen clock: %v", err)
	}
	var got bytes.Buffer
	if err := core.EncodeCheckpoint(&got, cp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("merged checkpoint differs from the single-process run's (%d vs %d bytes)", got.Len(), len(want))
	}
	if n := reports() - before; asked < 2 || n != uint64(asked) {
		t.Fatalf("%d solicited reports for %d shards asked, want one each", n, asked)
	}
}

// TestEpochFingerprintGating: an unchanged RIB ships a sequence bump, not
// the table; a changed one ships in full. Verified through the journal, and
// through the checkpoints: after the bump every shard's report and the
// merged checkpoint state epoch 2 (Epoch and Swaps), and after the third
// distribute the merged checkpoint states 3.
func TestEpochFingerprintGating(t *testing.T) {
	tc := newVirtualCluster(t, 2, nil)
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

// TestClusterHealthTransitions: unready before the first epoch, ok while
// owned, degraded while a shard is orphaned with buffered flows.
func TestClusterHealthTransitions(t *testing.T) {
	tc := newVirtualCluster(t, 2, nil)
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
