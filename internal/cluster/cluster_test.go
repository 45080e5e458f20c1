package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"net"
	"runtime"
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
		if !rt.IngestWait(f) {
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
	deadline := time.Now().Add(5 * time.Second)
	for {
		var buf bytes.Buffer
		err := rt.WriteCheckpoint(&buf)
		if err == nil {
			return buf.Bytes()
		}
		if time.Now().After(deadline) {
			t.Fatalf("runtime never quiescent: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
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

	mu      sync.Mutex
	coord   *Coordinator // replaced by restartCoordinator; read under mu
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
	tel := obs.NewTelemetry()
	cfg := Config{
		Shards:            shards,
		Members:           testMembers,
		Start:             tcStart,
		Bucket:            time.Hour,
		HeartbeatInterval: 20 * time.Millisecond,
		Telemetry:         tel,
	}
	if mod != nil {
		mod(&cfg)
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{
		t: t, coord: coord, tel: tel, cfg: cfg,
		cancels: make(map[int]context.CancelFunc),
		runDone: make(map[int]chan struct{}),
		conns:   make(map[int]net.Conn),
	}
	t.Cleanup(func() {
		tc.mu.Lock()
		coord := tc.coord
		tc.mu.Unlock()
		coord.Close()
	})
	return tc
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
	w, err := NewWorker(WorkerConfig{
		Name:              "w" + string(rune('0'+i)),
		Dial:              dial,
		HeartbeatInterval: 20 * time.Millisecond,
		InitialBackoff:    5 * time.Millisecond,
		MaxBackoff:        50 * time.Millisecond,
		Seed:              int64(i),
		Telemetry:         tc.tel,
	})
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
	tc.await(w.label()+" joined", func() bool { return tc.hasJoined(w.label()) })
}

// await polls cond until it holds, and fails the test if that takes more
// than five seconds — for state another goroutine is about to reach (a
// redial landing, a ledger write), where asserting at once would race it.
func (tc *testCluster) await(what string, cond func() bool) {
	tc.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			tc.t.Fatalf("%s: still not so after 5s", what)
		}
		time.Sleep(time.Millisecond)
	}
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
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cp, err := tc.coordinator().Checkpoint(ctx)
	if err != nil {
		tc.t.Fatalf("cluster checkpoint: %v", err)
	}
	var buf bytes.Buffer
	if err := core.EncodeCheckpoint(&buf, cp); err != nil {
		tc.t.Fatal(err)
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
	flows := testFlows(5)
	em := epochMsg{seq: 9, trace: 0xDEAD, shipNanos: 12345, full: true, members: testMembers, anns: testRIB().Announcements()}
	got, err := decodeEpoch(frameBody(t, encodeEpoch(em)))
	if err != nil {
		t.Fatal(err)
	}
	if got.seq != 9 || got.trace != 0xDEAD || got.shipNanos != 12345 ||
		!got.full || len(got.members) != len(testMembers) || len(got.anns) != len(em.anns) {
		t.Fatalf("epoch round trip mismatch: %+v", got)
	}
	for i, a := range got.anns {
		if a.Prefix != em.anns[i].Prefix || a.Origin != em.anns[i].Origin {
			t.Fatalf("announcement %d mismatch", i)
		}
	}

	bump, err := decodeEpoch(frameBody(t, encodeEpoch(epochMsg{seq: 10})))
	if err != nil {
		t.Fatal(err)
	}
	if bump.full || bump.seq != 10 || bump.anns != nil {
		t.Fatalf("bump round trip mismatch: %+v", bump)
	}

	// Re-stamping a cached epoch frame must change only trace+ship.
	stamped, err := decodeEpoch(frameBody(t, stampEpochFrame(frameBody(t, encodeEpoch(em)), 0xBEEF, 777)))
	if err != nil {
		t.Fatal(err)
	}
	if stamped.trace != 0xBEEF || stamped.shipNanos != 777 ||
		stamped.seq != em.seq || len(stamped.anns) != len(em.anns) {
		t.Fatalf("stamped epoch mismatch: %+v", stamped)
	}

	am := assignMsg{shard: 3, trace: 0xF00D, cursor: 77, startNanos: tcStart.UnixNano(), bucket: int64(time.Hour), checkpoint: []byte("cpbytes")}
	ga, err := decodeAssign(frameBody(t, encodeAssign(am)))
	if err != nil {
		t.Fatal(err)
	}
	if ga.shard != 3 || ga.trace != 0xF00D || ga.cursor != 77 || ga.startNanos != am.startNanos || string(ga.checkpoint) != "cpbytes" {
		t.Fatalf("assign round trip mismatch: %+v", ga)
	}

	sc := shardCtrlMsg{shard: 6, trace: 0xABCD, nanos: 4242}
	gsc, err := decodeShardCtrl(frameBody(t, encodeShardCtrl(msgReportReq, sc)))
	if err != nil || gsc != sc {
		t.Fatalf("shard-ctrl round trip: %+v, %v", gsc, err)
	}

	fm := flowsMsg{shard: 2, base: 41, flows: flows}
	var scratch flowScratch // reused by the compressed frame below, as a read loop would
	gf, err := scratch.decode(appendFlows(nil, fm))
	if err != nil {
		t.Fatal(err)
	}
	if gf.shard != 2 || gf.base != 41 || len(gf.flows) != len(flows) {
		t.Fatalf("flows round trip mismatch")
	}
	for i := range flows {
		if !gf.flows[i].Start.Equal(flows[i].Start) || gf.flows[i].SrcAddr != flows[i].SrcAddr ||
			gf.flows[i].Bytes != flows[i].Bytes || gf.flows[i].Ingress != flows[i].Ingress {
			t.Fatalf("flow %d did not survive the wire", i)
		}
	}

	rm := reportMsg{shard: 1, final: true, trace: 0x1234, reqNanos: 999, cursor: 123, checkpoint: []byte("x")}
	gr, err := decodeReport(frameBody(t, encodeReport(rm)))
	if err != nil {
		t.Fatal(err)
	}
	if gr.shard != 1 || !gr.final || gr.trace != 0x1234 || gr.reqNanos != 999 ||
		gr.cursor != 123 || string(gr.checkpoint) != "x" {
		t.Fatalf("report round trip mismatch: %+v", gr)
	}

	nonce, err := decodeChallenge(frameBody(t, encodeChallenge(bytes.Repeat([]byte{0xAB}, challengeNonceLen))))
	if err != nil || len(nonce) != challengeNonceLen || nonce[0] != 0xAB {
		t.Fatalf("challenge round trip: %x, %v", nonce, err)
	}

	hm := helloMsg{identity: "node-1", name: "w1"}
	hm.mac = helloMAC([]byte("s3cret"), nonce, hm.identity, hm.name)
	gh, err := decodeHello(frameBody(t, encodeHello(hm)))
	if err != nil || gh.identity != "node-1" || gh.name != "w1" || !bytes.Equal(gh.mac, hm.mac) {
		t.Fatalf("hello round trip: %+v, %v", gh, err)
	}

	zm := flowsMsg{shard: 4, base: 17, flows: flows}
	gz, err := scratch.decode(new(flowDeflater).appendFlowsZ(nil, zm))
	if err != nil {
		t.Fatal(err)
	}
	if gz.shard != 4 || gz.base != 17 || len(gz.flows) != len(flows) {
		t.Fatalf("compressed flows round trip mismatch")
	}
	for i := range flows {
		if !gz.flows[i].Start.Equal(flows[i].Start) || gz.flows[i].SrcAddr != flows[i].SrcAddr ||
			gz.flows[i].Bytes != flows[i].Bytes || gz.flows[i].Ingress != flows[i].Ingress {
			t.Fatalf("compressed flow %d did not survive the wire", i)
		}
	}

	tm := telemetryMsg{
		journalStart: 17171717,
		epochSeq:     4,
		samples: []wireSample{
			{name: "c", help: "a counter", kind: 0,
				labels: []obs.Label{{Name: "worker", Value: "w1"}}, value: 42},
			{name: "g", help: "a gauge", kind: 1, value: -1.5},
			{name: "h", help: "a histogram", kind: 2,
				labels: []obs.Label{{Name: "worker", Value: "w1"}, {Name: "stage", Value: "compile"}},
				hist: obs.HistogramSnapshot{
					Bounds: []float64{0.1, 1}, Counts: []uint64{3, 2, 1}, Count: 6, Sum: 2.5,
				}},
		},
		events: []obs.Event{
			{Seq: 5, Wall: tcStart, Kind: "checkpoint", Msg: "wrote"},
			{Seq: 6, Wall: tcStart.Add(time.Second), Kind: "span-epoch", Msg: "trace x"},
		},
	}
	gt, err := decodeTelemetry(frameBody(t, encodeTelemetry(tm)))
	if err != nil {
		t.Fatal(err)
	}
	if gt.journalStart != tm.journalStart || gt.epochSeq != 4 ||
		len(gt.samples) != 3 || len(gt.events) != 2 {
		t.Fatalf("telemetry round trip mismatch: %+v", gt)
	}
	if s := gt.samples[0]; s.name != "c" || s.kind != 0 || s.value != 42 ||
		len(s.labels) != 1 || s.labels[0] != (obs.Label{Name: "worker", Value: "w1"}) {
		t.Fatalf("telemetry counter sample mismatch: %+v", s)
	}
	if s := gt.samples[2]; s.kind != 2 || s.hist.Count != 6 || s.hist.Sum != 2.5 ||
		len(s.hist.Bounds) != 2 || len(s.hist.Counts) != 3 || s.hist.Counts[0] != 3 {
		t.Fatalf("telemetry histogram sample mismatch: %+v", s)
	}
	if e := gt.events[0]; e.Seq != 5 || e.Kind != "checkpoint" || e.Msg != "wrote" ||
		!e.Wall.Equal(tcStart) {
		t.Fatalf("telemetry event mismatch: %+v", e)
	}

	ack, err := decodeTelemetryAck(frameBody(t, encodeTelemetryAck(91)))
	if err != nil || ack != 91 {
		t.Fatalf("telemetry ack round trip: %d, %v", ack, err)
	}
}

// sinkConn is a worker connection that swallows writes, counting them and
// keeping the last.
type sinkConn struct {
	net.Conn
	writes atomic.Int64
	last   []byte
}

func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }
func (c *sinkConn) Close() error                     { return nil }
func (c *sinkConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	c.last = append(c.last[:0], b...)
	return len(b), nil
}

// TestFlowFrameIsOneWriteAndNoAllocation pins the coordinator's per-frame
// cost on the flow plane: flushToOwnerLocked builds each frame behind a
// reserved length prefix in a buffer the link's writer handed back, so a
// frame is exactly one Write and, once the buffers exist, no allocation —
// and still reads back as the batch that went in.
func TestFlowFrameIsOneWriteAndNoAllocation(t *testing.T) {
	for _, compress := range []bool{false, true} {
		c, err := NewCoordinator(Config{
			Shards: 1, Members: testMembers, Start: tcStart, Bucket: time.Hour,
			FlowBatch: 512, Compress: compress, HeartbeatInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		sink := &sinkConn{}
		l := &link{
			conn: sink, released: true,
			out:  make(chan []byte, outboundDepth),
			ctrl: make(chan []byte, outboundDepth),
			free: make(chan []byte, freeFrames),
			dead: make(chan struct{}),
		}
		go c.writeLoop(l)
		s, flows := c.shards[0], testFlows(512)
		var base uint64
		send := func() {
			c.mu.Lock()
			base = s.cursor
			s.replay = append(s.replay[:0], flows...)
			s.owner, s.ackBase, s.sentCursor = l, base, base
			s.cursor += uint64(len(flows))
			frames := l.written.Load() + 1
			c.flushToOwnerLocked(s)
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
		c.killLink(l, "test over")
		c.Close()
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
// the table; a changed one ships in full. Verified through the journal,
// and through the merged checkpoint's epoch count still matching a
// reference runtime that swapped as many times.
func TestEpochFingerprintGating(t *testing.T) {
	tc := newTestCluster(t, 2)
	tc.startWorker(0)
	rib := testRIB()
	if seq := tc.distribute(rib); seq != 1 {
		t.Fatalf("first epoch seq = %d", seq)
	}
	if seq := tc.distribute(rib); seq != 2 {
		t.Fatalf("second epoch seq = %d", seq)
	}
	rib.AddAnnouncement(netx.MustParsePrefix("91.0.0.0/16"), []bgp.ASN{10, 20})
	if seq := tc.distribute(rib); seq != 3 {
		t.Fatalf("third epoch seq = %d", seq)
	}
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
	tc.await("two workers joined", func() bool { return tc.coord.Stats().Workers == 2 })
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
	tc.await("health ok once owned", func() bool {
		h := tc.tel.Health()
		return h.Ready && h.Status == "ok"
	})
	tc.killWorker(0)
	for _, f := range testFlows(10) {
		tc.coord.Ingest(f)
	}
	tc.await("health degraded after worker death", func() bool {
		h := tc.tel.Health()
		return h.Ready && h.Status == "degraded"
	})
}
