package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"spoofscope/internal/core"
)

// The book suite drives the shard book directly: no sockets, no goroutines,
// time passed in by hand. A fake outbox stands in for a link's queues, and a
// worker model reads what the book queued the way a worker would.

// fakeOutbox keeps the frames the book queued, refuses once a plane holds
// limit frames (0: never), and counts frames written only when the test
// plays the writer (deliver).
type fakeOutbox struct {
	ctrlQ, dataQ [][]byte
	limit        int
	written      uint64
}

func (o *fakeOutbox) offer(q *[][]byte, frame []byte) bool {
	if o.limit > 0 && len(*q) >= o.limit {
		return false
	}
	*q = append(*q, frame)
	return true
}

func (o *fakeOutbox) ctrl(frame []byte) bool  { return o.offer(&o.ctrlQ, frame) }
func (o *fakeOutbox) data(frame []byte) bool  { return o.offer(&o.dataQ, frame) }
func (o *fakeOutbox) buffer() []byte          { return nil }
func (o *fakeOutbox) recycle([]byte)          {}
func (o *fakeOutbox) progress() (uint64, int) { return o.written, len(o.ctrlQ) + len(o.dataQ) }
func (o *fakeOutbox) take() (ctrl, data [][]byte) {
	ctrl, data = o.ctrlQ, o.dataQ
	o.ctrlQ, o.dataQ = nil, nil
	return
}

// modelWorker is one connection's far end: what it has been assigned, and
// how far into each shard's stream it has read.
type modelWorker struct {
	p    *peer
	out  *fakeOutbox
	id   string
	held map[uint32]*modelShard
	dead bool // the book dropped it; its connection is closed
	// routed: a full epoch has been read, so flows can be classified.
	routed bool
}

type modelShard struct {
	cursor  uint64
	revoked bool
	// asked is the cursor at each report request read for the shard: the
	// position a worker's answer would cover.
	asked []uint64
}

// bookRig is a book on a hand-driven clock with model workers.
type bookRig struct {
	t       testing.TB
	b       *book
	now     time.Time
	workers []*modelWorker
	cps     map[uint64][]byte
}

const rigSecret = "rig-secret"

func newBookRig(t testing.TB, shards, batch int) *bookRig {
	cfg := Config{Shards: shards, Start: tcStart, Bucket: time.Hour, FlowBatch: batch,
		HeartbeatInterval: time.Second, Secret: []byte(rigSecret)}
	b, err := newBook(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &bookRig{t: t, b: b, now: tcStart, cps: make(map[uint64][]byte)}
}

// connect accepts a connection whose outbox refuses past limit frames.
func (r *bookRig) connect(limit int) *modelWorker {
	out := &fakeOutbox{limit: limit}
	nonce := make([]byte, challengeNonceLen)
	binary.BigEndian.PutUint64(nonce, uint64(len(r.workers)))
	p := r.b.accept(out, nonce, r.now)
	if p == nil {
		return nil
	}
	w := &modelWorker{p: p, out: out, held: make(map[uint32]*modelShard)}
	r.workers = append(r.workers, w)
	r.apply()
	return w
}

// hello sends w's hello as identity id, signed with the right secret or not.
func (r *bookRig) hello(w *modelWorker, id string, signed bool) {
	m := helloMsg{identity: id, name: id}
	secret := []byte(rigSecret)
	if !signed {
		secret = []byte("wrong")
	}
	m.mac = helloMAC(secret, w.p.nonce, m.identity, m.name)
	w.id = id
	r.b.frame(w.p, encodeHello(m)[frameHeadLen:], r.now)
	r.apply()
}

// epoch distributes the test routing table in full: until then the book
// holds every shard's flows.
func (r *bookRig) epoch() {
	rib := testRIB()
	r.b.epoch(rib.Announcements(), rib.Fingerprint(), r.now)
	r.apply()
}

func (r *bookRig) heartbeat(w *modelWorker) {
	r.b.frame(w.p, heartbeatFrame[frameHeadLen:], r.now)
	r.apply()
}

// checkpointAt is an empty shard checkpoint incorporating n flows.
func (r *bookRig) checkpointAt(n uint64) []byte {
	if cp, ok := r.cps[n]; ok {
		return cp
	}
	cp := emptyCheckpointAt(n, time.Hour)
	r.cps[n] = cp
	return cp
}

// report sends w's report for shard s: at the position it has read to, with
// a checkpoint whose header claims skew flows more than that.
func (r *bookRig) report(w *modelWorker, s uint32, skew int) {
	ms := w.held[s]
	var cursor uint64
	final := false
	if ms != nil {
		cursor, final = ms.cursor, ms.revoked
	}
	m := reportMsg{shard: s, final: final, cursor: cursor, checkpoint: r.checkpointAt(cursor + uint64(skew))}
	if final && skew == 0 {
		delete(w.held, s) // the drain report ends the worker's hold
	}
	r.b.frame(w.p, bytes.Clone(encodeReport(m)[frameHeadLen:]), r.now)
	r.apply()
}

func (r *bookRig) tick(d time.Duration) {
	r.now = r.now.Add(d)
	r.b.tick(r.now)
	r.apply()
}

// deliver plays w's writer and reader: every queued frame is written and
// read, control plane first, the way the shell's writer prefers it.
func (r *bookRig) deliver(w *modelWorker) {
	ctrl, data := w.out.take()
	for _, frame := range append(ctrl, data...) {
		w.out.written++
		body := frame[frameHeadLen:]
		switch body[0] {
		case msgEpoch:
			m, err := decodeEpoch(body)
			if err != nil {
				r.t.Fatal(err)
			}
			w.routed = w.routed || m.full
		case msgAssign:
			m, err := decodeAssign(body)
			if err != nil {
				r.t.Fatal(err)
			}
			if _, ok := w.held[m.shard]; ok {
				r.t.Fatalf("shard %d assigned twice to %s", m.shard, w.id)
			}
			w.held[m.shard] = &modelShard{cursor: m.cursor}
		case msgReportReq:
			m, err := decodeShardCtrl(body)
			if err != nil {
				r.t.Fatal(err)
			}
			// A worker ignores a request for a shard it does not hold.
			if ms := w.held[m.shard]; ms != nil {
				ms.asked = append(ms.asked, ms.cursor)
			}
		case msgRevoke:
			m, _ := decodeShardCtrl(body)
			if ms := w.held[m.shard]; ms != nil {
				ms.revoked = true
			} else {
				r.t.Fatalf("revoke of shard %d, which %s does not hold", m.shard, w.id)
			}
		case msgFlows, msgFlowsZ:
			var sc flowScratch
			m, err := sc.decode(body)
			if err != nil {
				r.t.Fatal(err)
			}
			ms := w.held[m.shard]
			switch {
			case ms == nil:
				r.t.Fatalf("flows for shard %d, which %s does not hold", m.shard, w.id)
			case !w.routed:
				r.t.Fatalf("flows for shard %d before %s read a full epoch", m.shard, w.id)
			case ms.revoked:
				r.t.Fatalf("flows for shard %d after its revoke", m.shard)
			case ms.cursor != m.base:
				r.t.Fatalf("shard %d stream at %d, batch base %d", m.shard, ms.cursor, m.base)
			}
			ms.cursor += uint64(len(m.flows))
		}
	}
}

// apply takes the step's outputs: a dropped peer's connection closes, and
// its far end forgets everything.
func (r *bookRig) apply() {
	kills, _, _ := r.b.outputs()
	for _, p := range kills {
		for _, w := range r.workers {
			if w.p == p {
				w.dead, w.held = true, nil
			}
		}
	}
}

// live returns the workers whose connections are open.
func (r *bookRig) live() []*modelWorker {
	var ws []*modelWorker
	for _, w := range r.workers {
		if !w.dead {
			ws = append(ws, w)
		}
	}
	return ws
}

// check asserts the book's invariants, given the cursors of the step before.
func (r *bookRig) check(prev []shard) {
	r.t.Helper()
	b := r.b
	var routed uint64
	for i := range b.shards {
		s := &b.shards[i]
		routed += s.cursor
		if !(s.ackBase <= s.sentCursor && s.sentCursor <= s.cursor) ||
			len(s.replay)%flowWireLen != 0 || uint64(s.replayFlows()) != s.cursor-s.ackBase {
			r.t.Fatalf("shard %d: ackBase %d sentCursor %d cursor %d, %d replay bytes",
				i, s.ackBase, s.sentCursor, s.cursor, len(s.replay))
		}
		if prev != nil && (s.cursor < prev[i].cursor || s.ackBase < prev[i].ackBase) {
			r.t.Fatalf("shard %d moved back: cursor %d→%d, ackBase %d→%d",
				i, prev[i].cursor, s.cursor, prev[i].ackBase, s.ackBase)
		}
		if s.lastReport != nil {
			if head, err := core.CheckpointHeader(s.lastReport); err != nil || head.Processed != s.ackBase {
				r.t.Fatalf("shard %d accepted a report for %d flows, its checkpoint says %d (%v)",
					i, s.ackBase, head.Processed, err)
			}
		} else if s.ackBase != 0 {
			r.t.Fatalf("shard %d acknowledged %d flows with no report", i, s.ackBase)
		}
		if o := s.owner; o != nil && (o.gone || !o.joined) {
			r.t.Fatalf("shard %d owned by a dropped or unauthenticated peer", i)
		}
		holders := 0
		for _, w := range r.live() {
			if w.held[uint32(i)] != nil {
				holders++
			}
		}
		if holders > 1 {
			r.t.Fatalf("shard %d held by %d live workers", i, holders)
		}
	}
	if routed != b.flowsRouted {
		r.t.Fatalf("flowsRouted %d, cursors sum to %d", b.flowsRouted, routed)
	}
}

// cursors snapshots the shards for the next step's check.
func (r *bookRig) cursors() []shard { return append([]shard(nil), r.b.shards...) }

// TestBookLiveness pins the one liveness rule at the book: a peer is dead
// once nothing has been read from it for interval × misses — before its
// hello as after — or once frames have waited in its queues that long with
// no write finished; a peer that talks, or whose writer moves, lives.
func TestBookLiveness(t *testing.T) {
	const interval = time.Second // deadline 3s
	for _, row := range []struct {
		name   string
		hello  bool
		every  func(r *bookRig, w *modelWorker) // before each tick
		ticks  int
		alive  bool
		counts func(st Stats) bool
	}{
		{name: "silent before its hello", ticks: 3,
			counts: func(st Stats) bool { return st.AuthFailures == 1 }},
		{name: "one tick short of the deadline", ticks: 2, alive: true},
		{name: "silent worker", hello: true, ticks: 3,
			counts: func(st Stats) bool { return st.AuthFailures == 0 && st.Handoffs == 3 }},
		{name: "heard every interval", hello: true, ticks: 10, alive: true,
			every: func(r *bookRig, w *modelWorker) { r.heartbeat(w); r.deliver(w) }},
		{name: "heard but never written to", hello: true, ticks: 4,
			every: func(r *bookRig, w *modelWorker) { r.heartbeat(w) }},
		{name: "writer slow but moving", hello: true, ticks: 10, alive: true,
			every: func(r *bookRig, w *modelWorker) {
				r.heartbeat(w)
				w.out.written++ // one frame out, the backlog stays
			}},
	} {
		t.Run(row.name, func(t *testing.T) {
			r := newBookRig(t, 3, 64)
			w := r.connect(0)
			if row.hello {
				r.hello(w, "node-1", true)
				r.deliver(w)
			}
			for range row.ticks {
				if row.every != nil {
					row.every(r, w)
				}
				r.tick(interval)
			}
			if w.dead == row.alive {
				t.Fatalf("alive = %v after %d ticks, want %v", !w.dead, row.ticks, row.alive)
			}
			if st := r.b.stats(); row.counts != nil && !row.counts(st) {
				t.Fatalf("counters after the drop: %+v", st)
			}
			if !row.alive && r.b.stats().Conns != 0 {
				t.Fatal("dropped peer still counted as a connection")
			}
		})
	}
}

// TestBookHandoffReplaysExactlyTheUnreported: a worker that dies between
// reports takes nothing with it. Its shards go to the survivor from their
// last durable report, the replay is exactly the flows past it, and a report
// still arriving on the dead worker's connection changes nothing.
func TestBookHandoffReplaysExactlyTheUnreported(t *testing.T) {
	r := newBookRig(t, 1, 4)
	a, b := r.connect(0), r.connect(0)
	r.hello(a, "node-a", true)
	r.epoch()
	r.deliver(a)
	r.b.ingest(testFlows(10))
	r.deliver(a)
	r.report(a, 0, 0) // durable at 8: the last two flows are still batching
	r.hello(b, "node-b", true)
	r.deliver(b)
	prev := r.cursors()
	r.b.lost(a.p, "read: EOF", r.now)
	r.apply()
	r.deliver(b)
	r.check(prev)
	s := &r.b.shards[0]
	if s.owner != b.p || b.held[0] == nil || b.held[0].cursor != 10 {
		t.Fatalf("shard owned by %v, survivor read to %+v; want the survivor at 10", s.owner, b.held[0])
	}
	if st := r.b.stats(); st.Handoffs != 1 || st.ReplayFlows != 2 {
		t.Fatalf("after the death: %+v; want one handoff replaying the 2 unreported flows", st)
	}
	// The survivor's report clears the replay; a report still arriving on
	// the dead worker's connection changes nothing.
	r.report(b, 0, 0)
	r.b.frame(a.p, bytes.Clone(encodeReport(reportMsg{shard: 0, cursor: 10, checkpoint: r.checkpointAt(10)})[frameHeadLen:]), r.now)
	if st := r.b.stats(); st.ReplayFlows != 0 || st.StaleReports != 0 || s.ackBase != 10 {
		t.Fatalf("after the survivor's report: %+v, ackBase %d", st, s.ackBase)
	}
}

// TestReportRequestTrailsItsFlows: a report request reaches the worker behind
// every flow frame queued for its shard before it, the tail requestReports
// flushes included, even though the writer empties the control plane first.
// The worker therefore reads each request at the book's cursor, and its one
// answer covers every flow the book asked about. A shard no flow reached is
// not behind, and is not asked.
func TestReportRequestTrailsItsFlows(t *testing.T) {
	r := newBookRig(t, 4, 8)
	w := r.connect(0)
	r.hello(w, "node-1", true)
	r.epoch()
	r.deliver(w)
	r.b.ingest(testFlows(150))
	fed, tails := 0, 0
	for i := range r.b.shards {
		s := &r.b.shards[i]
		if s.cursor > 0 {
			fed++
		}
		if s.sentCursor < s.cursor {
			tails++
		}
	}
	if fed < 2 || tails == 0 {
		t.Fatalf("%d shards fed, %d with a tail below the flow batch; want several, and a tail for requestReports to flush",
			fed, tails)
	}
	r.b.requestReports(r.now)
	r.apply()
	r.deliver(w)
	for i := range r.b.shards {
		s := &r.b.shards[i]
		want := []uint64{s.cursor}
		if s.cursor == 0 {
			want = nil
		}
		if asked := w.held[s.id].asked; !slices.Equal(asked, want) {
			t.Fatalf("shard %d: report requests read at %v, want %v", i, asked, want)
		}
	}
}

// TestBookRefusesInconsistentReports: a report whose checkpoint header
// claims one flow fewer or more than its cursor is refused and costs the
// link; the shard keeps its last durable state.
func TestBookRefusesInconsistentReports(t *testing.T) {
	for _, skew := range []int{-1, 1} {
		r := newBookRig(t, 1, 2)
		w := r.connect(0)
		r.hello(w, "node-1", true)
		r.epoch()
		r.deliver(w)
		r.b.ingest(testFlows(4))
		r.deliver(w)
		prev := r.cursors()
		r.report(w, 0, skew)
		r.check(prev)
		if st := r.b.stats(); !w.dead || st.ReportMismatches != 1 || r.b.shards[0].ackBase != 0 {
			t.Fatalf("skew %d: alive %v, %+v, ackBase %d", skew, !w.dead, st, r.b.shards[0].ackBase)
		}
	}
}

// FuzzShardBook drives the book with arbitrary input sequences — connects,
// hellos right and wrong, flows, deliveries, reports right and skewed,
// ticks, lost connections, epochs — against small, refusing queues, and
// checks the exactly-once invariants after every step: no shard held by two
// live workers, ackBase ≤ sentCursor ≤ cursor with the replay exactly
// [ackBase, cursor), no cursor moving back, no report accepted that
// disagrees with its checkpoint header, flowsRouted == Σ cursor, and every
// frame a worker reads in order.
func FuzzShardBook(f *testing.F) {
	// Ops are a kind (low nibble) and an argument (high nibble). Each seed
	// distributes an epoch before its first flows: the book ships no flow
	// before one.
	f.Add([]byte{0x08, 0x00, 0x01, 0x00, 0x11, 0x12, 0x12, 0x12, 0x12, 0x12, 0x12, 0x03, 0x13,
		0x05, 0x15, 0x25, 0x04, 0x0A, 0x03, 0x13, 0x05, 0x15, 0x0B}) // two workers, reports
	f.Add([]byte{0x08, 0x00, 0x01, 0x12, 0x12, 0x12, 0x03, 0x05, 0x00, 0x11, 0x03, 0x13,
		0x07, 0x13, 0x15, 0x04, 0x04, 0x04, 0x0B}) // a late joiner, then a death
	f.Add([]byte{0x08, 0x00, 0x01, 0x00, 0x31, 0x12, 0x12, 0x03, 0x06, 0x04, 0x04, 0x04,
		0x09, 0x08, 0x0B}) // an identity clash, a skewed report, silence
	f.Add([]byte{0x10, 0x01, 0x03, 0x08, 0x12, 0x12, 0x12, 0x12, 0x12, 0x12, 0x12, 0x12, 0x12, 0x12,
		0x12, 0x12, 0x04, 0x04, 0x04, 0x03, 0x0B}) // a queue of four that fills
	f.Add([]byte{0x08, 0x00, 0x01, 0x00, 0x11, 0xF2, 0x72, 0x02, 0xF2, 0x03, 0x13, 0x05, 0x15,
		0x25, 0x07, 0xF2, 0x03, 0x0A, 0x03, 0x05, 0x0B}) // whole messages, an empty one, a death
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := newBookRig(t, 3, 2)
		flows := testFlows(64)
		var epochs int
		rib := testRIB()
		anns, fp := rib.Announcements(), rib.Fingerprint()
		pick := func(arg byte) *modelWorker {
			ws := r.live()
			if len(ws) == 0 {
				return nil
			}
			return ws[int(arg)%len(ws)]
		}
		for i, op := range ops {
			if i >= 256 {
				break
			}
			prev := r.cursors()
			arg := op >> 4
			switch op & 0xF {
			case 0: // connect, every other one with a queue of 4
				if len(r.workers) < 8 {
					r.connect(int(arg&1) * 4)
				}
			case 1: // hello as one of three identities; arg 2 and up, sometimes unsigned
				if w := pick(arg); w != nil && !w.p.joined {
					r.hello(w, fmt.Sprintf("node-%d", arg%3), arg < 12)
				}
			case 2: // a message of arg flows (0 to 15)
				lo := (i + int(arg)) % len(flows)
				r.b.ingest(flows[lo:min(lo+int(arg), len(flows))])
			case 3: // deliver everything queued to one worker
				if w := pick(arg); w != nil {
					r.deliver(w)
				}
			case 4: // tick a third of the deadline on
				r.tick(time.Second)
			case 5, 6: // report a held shard: consistent (5) or skewed (6)
				if w := pick(arg); w != nil && w.p.joined {
					skew := 0
					if op&0xF == 6 {
						skew = 1
					}
					r.report(w, uint32(arg)%3, skew)
				}
			case 7: // a connection fails
				if w := pick(arg); w != nil {
					r.b.lost(w.p, "read: EOF", r.now)
					r.apply()
				}
			case 8: // an epoch
				if epochs < 4 {
					epochs++
					r.b.epoch(anns, fp, r.now)
					r.apply()
				}
			case 9: // heartbeat
				if w := pick(arg); w != nil && w.p.joined {
					r.heartbeat(w)
				}
			case 10: // solicit reports, as Checkpoint does
				r.b.requestReports(r.now)
				r.apply()
			case 11: // the ledger round-trips byte for byte
				enc := encodeLedger(r.b)
				lg, err := decodeLedger(enc)
				if err != nil {
					t.Fatalf("book's own ledger does not decode: %v", err)
				}
				if !bytes.Equal(encodeLedger(lg), enc) {
					t.Fatal("ledger re-encodes differently")
				}
			}
			r.check(prev)
		}
	})
}

// TestLedgerIsTheBook: a book resumed from its own ledger holds the same
// durable state, every shard orphaned at its durable position, and renders
// the same shard rows a standby would serve.
func TestLedgerIsTheBook(t *testing.T) {
	r := newBookRig(t, 3, 2)
	w := r.connect(0)
	r.hello(w, "node-1", true)
	r.epoch()
	r.deliver(w)
	r.b.ingest(testFlows(20))
	r.deliver(w)
	r.report(w, 0, 0)
	lg, err := decodeLedger(encodeLedger(r.b))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 3, Start: tcStart, Bucket: time.Hour}
	resumed, err := newBook(&cfg, lg)
	if err != nil {
		t.Fatal(err)
	}
	live, standby := r.b.status("coordinator", ""), resumed.status("standby", "")
	for i, row := range standby.Shards {
		want := live.Shards[i]
		want.Owner, want.SentCursor = "", want.AckBase
		if row != want {
			t.Fatalf("shard %d resumed as %+v, want %+v", i, row, want)
		}
	}
	behind := 0
	for i := range r.b.shards {
		if s := &r.b.shards[i]; s.cursor > s.ackBase {
			behind++
		}
	}
	if standby.FlowsRouted != 20 || standby.Orphaned != behind || len(standby.Workers) != 0 {
		t.Fatalf("resumed book: %+v", standby)
	}
}
