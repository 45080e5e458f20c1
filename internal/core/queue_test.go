package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spoofscope/internal/ipfix"
)

func queueFlow(i int) ipfix.Flow {
	return ipfix.Flow{SrcPort: uint16(i), Packets: 1, Bytes: 60}
}

func TestQueueFIFOAndClose(t *testing.T) {
	q := NewIngestQueue(QueueConfig{Capacity: 8})
	for i := 0; i < 5; i++ {
		if !q.Push(queueFlow(i)) {
			t.Fatalf("push %d shed below watermark", i)
		}
	}
	q.Close()
	if q.Push(queueFlow(99)) {
		t.Fatal("push accepted after Close")
	}
	for i := 0; i < 5; i++ {
		f, ok := q.Pop()
		if !ok || f.SrcPort != uint16(i) {
			t.Fatalf("pop %d: got (%d, %v), want FIFO order", i, f.SrcPort, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop reported a flow after drain")
	}
	st := q.Stats()
	if st.Ingested != 5 || st.Queued != 5 || st.Shed != 0 {
		t.Fatalf("stats = %+v, want 5 ingested, 5 queued, 0 shed", st)
	}
}

func TestQueueWatermarkHysteresis(t *testing.T) {
	q := NewIngestQueue(QueueConfig{Capacity: 8, HighWatermark: 6, LowWatermark: 3})
	// Fill to the high watermark: 6 accepted.
	for i := 0; i < 6; i++ {
		if !q.Push(queueFlow(i)) {
			t.Fatalf("push %d shed below high watermark", i)
		}
	}
	if !q.Stats().Shedding {
		t.Fatal("not shedding at high watermark")
	}
	// Above the watermark everything sheds (default fraction 1).
	for i := 6; i < 10; i++ {
		if q.Push(queueFlow(i)) {
			t.Fatalf("push %d accepted while shedding", i)
		}
	}
	// Drain to just above the low watermark: still shedding.
	for i := 0; i < 2; i++ {
		q.Pop()
	}
	if !q.Stats().Shedding {
		t.Fatal("shedding cleared above low watermark")
	}
	if q.Push(queueFlow(10)) {
		t.Fatal("push accepted inside hysteresis band")
	}
	// Drain to the low watermark: shedding stops.
	q.Pop()
	if q.Stats().Shedding {
		t.Fatal("still shedding at low watermark")
	}
	if !q.Push(queueFlow(11)) {
		t.Fatal("push shed after drain below low watermark")
	}
	st := q.Stats()
	if st.Shed != 5 || st.Queued != 7 || st.Ingested != 12 {
		t.Fatalf("stats = %+v, want 5 shed, 7 queued, 12 ingested", st)
	}
	if st.HighWatermarkObserved != 6 {
		t.Fatalf("high watermark observed = %d, want 6", st.HighWatermarkObserved)
	}
}

func TestQueueFullAlwaysSheds(t *testing.T) {
	// Watermarks at capacity: shedding only by overflow.
	q := NewIngestQueue(QueueConfig{Capacity: 4, HighWatermark: 4, LowWatermark: 4, ShedFraction: 0.000001})
	for i := 0; i < 4; i++ {
		if !q.Push(queueFlow(i)) {
			t.Fatalf("push %d shed with room left", i)
		}
	}
	if q.Push(queueFlow(4)) {
		t.Fatal("push accepted into a full ring")
	}
	if got := q.Stats().Shed; got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
}

// TestQueueShedDeterministic replays the same arrival/drain schedule twice
// with the same seed and asserts the identical flows are shed — the
// property that makes a faulted replay reproducible.
func TestQueueShedDeterministic(t *testing.T) {
	// offer is the door the schedule's arrivals come through: flow by flow
	// through Push, or each burst as one PushBatch. There is one shed policy
	// behind both, so the same trace must shed the same flows either way.
	perFlow := func(q *IngestQueue, burst []ipfix.Flow) {
		for _, f := range burst {
			q.Push(f)
		}
	}
	batch := func(q *IngestQueue, burst []ipfix.Flow) { q.PushBatch(burst) }
	run := func(seed int64, offer func(*IngestQueue, []ipfix.Flow)) (accepted []uint16, st QueueStats) {
		q := NewIngestQueue(QueueConfig{
			Capacity: 16, HighWatermark: 8, LowWatermark: 4,
			ShedSeed: seed, ShedFraction: 0.5,
		})
		i := 0
		push := func(n int) {
			burst := make([]ipfix.Flow, n)
			for k := range burst {
				burst[k] = queueFlow(i)
				i++
			}
			offer(q, burst)
		}
		// One ring, so the accepted flows are exactly the popped ones, in
		// arrival order.
		drain := func(n int) {
			// Bounded by occupancy so the schedule never blocks; the
			// realized drain count is itself deterministic because the
			// accept decisions are.
			for ; n > 0 && q.Depth() > 0; n-- {
				f, _ := q.Pop()
				accepted = append(accepted, f.SrcPort)
			}
		}
		// A fixed interleaving that crosses the watermark repeatedly.
		push(12)
		drain(6)
		push(10)
		drain(10)
		push(20)
		st = q.Stats()
		drain(st.Depth)
		return accepted, st
	}
	a1, s1 := run(42, perFlow)
	a2, s2 := run(42, perFlow)
	if s1 != s2 {
		t.Fatalf("stats diverged across identical replays: %+v vs %+v", s1, s2)
	}
	if !slices.Equal(a1, a2) {
		t.Fatalf("accepted flows diverged across identical replays: %v vs %v", a1, a2)
	}
	if s1.Shed == 0 {
		t.Fatal("schedule shed nothing; watermark never engaged")
	}
	if uint64(len(a1)) != s1.Queued {
		t.Fatalf("popped %d flows, counters say %d were queued", len(a1), s1.Queued)
	}
	if ab, sb := run(42, batch); sb != s1 || !slices.Equal(ab, a1) {
		t.Fatalf("PushBatch shed differently from Push over the same trace:\n per-flow %+v %v\n batch    %+v %v",
			s1, a1, sb, ab)
	}
	// A different seed with a fractional policy sheds a different subset.
	if a3, _ := run(43, perFlow); slices.Equal(a1, a3) {
		t.Fatal("seed change left the shed subset identical; decisions are not seed-keyed")
	}
}

func TestShedKeyPureAndBounded(t *testing.T) {
	for n := uint64(0); n < 1000; n++ {
		k := shedKey(7, n)
		if k < 0 || k >= 1 {
			t.Fatalf("shedKey(7, %d) = %v out of [0,1)", n, k)
		}
		if k != shedKey(7, n) {
			t.Fatalf("shedKey(7, %d) not pure", n)
		}
	}
}

func TestQueueRestoreContinuesKeySequence(t *testing.T) {
	// Two queues, one fresh and one restored at arrival index 5, must make
	// the same decisions for arrivals 5.. — the resume contract.
	cfg := QueueConfig{Capacity: 64, HighWatermark: 2, LowWatermark: 1, ShedSeed: 9, ShedFraction: 0.5}
	fresh := NewIngestQueue(cfg)
	for i := 0; i < 5; i++ {
		fresh.Push(queueFlow(i))
		fresh.Pop()
	}
	st := fresh.Stats()

	resumed := NewIngestQueue(cfg)
	resumed.restore(st.Ingested, st.Queued, st.Shed)
	for i := 5; i < 40; i++ {
		// No draining: both queues climb past the watermark and every
		// decision from here on is the seed-keyed coin alone.
		a := fresh.Push(queueFlow(i))
		b := resumed.Push(queueFlow(i))
		if a != b {
			t.Fatalf("arrival %d: fresh=%v resumed=%v", i, a, b)
		}
	}
	if f, r := fresh.Stats(), resumed.Stats(); f.Ingested != r.Ingested || f.Shed != r.Shed || f.Queued != r.Queued {
		t.Fatalf("counter divergence: fresh %+v resumed %+v", f, r)
	}
}

func TestQueuePopBatchFIFO(t *testing.T) {
	q := NewIngestQueue(QueueConfig{Capacity: 16})
	for i := 0; i < 10; i++ {
		q.Push(queueFlow(i))
	}
	q.Close()
	buf := make([]ipfix.Flow, 4)
	next := 0
	for {
		n := q.PopBatch(buf)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			if buf[i].SrcPort != uint16(next) {
				t.Fatalf("batch element %d = flow %d, want FIFO order %d", i, buf[i].SrcPort, next)
			}
			next++
		}
	}
	if next != 10 {
		t.Fatalf("drained %d flows, want 10", next)
	}
	if q.PopBatch(buf) != 0 {
		t.Fatal("PopBatch reported flows after drain")
	}
}

func TestQueueTryPopBatchNonBlocking(t *testing.T) {
	q := NewIngestQueue(QueueConfig{Capacity: 8})
	buf := make([]ipfix.Flow, 4)
	if n := q.TryPopBatch(buf); n != 0 {
		t.Fatalf("TryPopBatch on an empty open queue = %d, want 0", n)
	}
	q.Push(queueFlow(1))
	q.Push(queueFlow(2))
	if n := q.TryPopBatch(buf); n != 2 {
		t.Fatalf("TryPopBatch = %d, want 2", n)
	}
	if buf[0].SrcPort != 1 || buf[1].SrcPort != 2 {
		t.Fatal("TryPopBatch broke FIFO order")
	}
}

// TestQueueRingWraparound laps a tiny ring many times so every slot is
// reused across several sequence generations — the Vyukov seq protocol must
// keep FIFO order and never lose or duplicate a flow across the wrap.
func TestQueueRingWraparound(t *testing.T) {
	// Logical capacity 5 over 8 physical slots: the logical bound and the
	// power-of-two mask disagree, so slot reuse crosses the seam every lap.
	q := NewIngestQueue(QueueConfig{Capacity: 5, HighWatermark: 5, LowWatermark: 5})
	buf := make([]ipfix.Flow, 3)
	next := 0
	pushed := 0
	for lap := 0; lap < 40; lap++ {
		for i := 0; i < 5; i++ {
			if !q.Push(queueFlow(pushed)) {
				t.Fatalf("lap %d: push %d refused with room left", lap, pushed)
			}
			pushed++
		}
		for q.Depth() > 0 {
			n := q.TryPopBatch(buf)
			if n == 0 {
				t.Fatalf("lap %d: TryPopBatch returned 0 with depth %d", lap, q.Depth())
			}
			for i := 0; i < n; i++ {
				if buf[i].SrcPort != uint16(next) {
					t.Fatalf("lap %d: flow %d out of order: got %d", lap, next, buf[i].SrcPort)
				}
				next++
			}
		}
	}
	if next != pushed {
		t.Fatalf("drained %d flows, pushed %d", next, pushed)
	}
	if st := q.Stats(); st.Queued != uint64(pushed) || st.Shed != 0 {
		t.Fatalf("stats = %+v, want %d queued, 0 shed", st, pushed)
	}
}

// TestQueueWakeAllOnBurstAndClose is the regression test for the parked-
// consumer wake protocol: a batch push landing while several consumers are
// parked must wake all of them (Broadcast, not Signal), and Close must
// release every parked consumer. With a Signal in either path, all but one
// consumer would sleep forever and wg.Wait would hang.
func TestQueueWakeAllOnBurstAndClose(t *testing.T) {
	q := NewIngestQueue(QueueConfig{Capacity: 256, Rings: 4})
	const consumers = 4
	var drained atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]ipfix.Flow, 8)
			for {
				n := q.PopBatch(buf) // blocks parked until flows or close
				if n == 0 {
					return
				}
				drained.Add(uint64(n))
			}
		}()
	}
	// Let every consumer park on the empty queue, then land one burst.
	time.Sleep(20 * time.Millisecond)
	batch := make([]ipfix.Flow, 64)
	for i := range batch {
		batch[i] = queueFlow(i)
		batch[i].Ingress = uint32(i) // spread the burst across all rings
	}
	queued := q.PushBatch(batch)
	if queued != len(batch) {
		t.Fatalf("burst queued %d of %d below watermark", queued, len(batch))
	}
	deadline := time.Now().Add(5 * time.Second)
	for drained.Load() != uint64(queued) {
		if time.Now().After(deadline) {
			t.Fatalf("drained %d of %d: parked consumers never woke", drained.Load(), queued)
		}
		time.Sleep(time.Millisecond)
	}
	// All consumers are parked empty again; Close must release every one.
	q.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close left consumers parked")
	}
}

// TestQueuePerRingShedIsolation: with sharded rings, one hot ingress member
// saturating its ring must not shed other members' traffic — shedding state
// and its hysteresis are per ring.
func TestQueuePerRingShedIsolation(t *testing.T) {
	// 4 rings × capacity 8, per-ring watermarks hi=6, lo=4.
	q := NewIngestQueue(QueueConfig{Capacity: 32, HighWatermark: 24, LowWatermark: 16, Rings: 4})
	hot := ipfix.Flow{Ingress: 1, Packets: 1}
	rHot := q.ringFor(&hot)
	var cold ipfix.Flow
	for ing := uint32(2); ; ing++ {
		cold = ipfix.Flow{Ingress: ing, Packets: 1}
		if q.ringFor(&cold) != rHot {
			break
		}
	}
	for i := 0; i < rHot.hi; i++ {
		if !q.Push(hot) {
			t.Fatalf("hot push %d shed below the ring watermark", i)
		}
	}
	if !rHot.shedding.Load() {
		t.Fatal("hot ring not shedding at its high watermark")
	}
	if q.Push(hot) {
		t.Fatal("hot ring accepted a flow while shedding")
	}
	// The isolation property: the cold ring still accepts everything.
	if q.ringFor(&cold).shedding.Load() {
		t.Fatal("cold ring shedding without traffic")
	}
	if !q.Push(cold) {
		t.Fatal("cold flow shed while only the hot ring is saturated")
	}
	// Drain until the hot ring's hysteresis clears (Pop rotates rings, so
	// bound the loop by total occupancy).
	for i := 0; rHot.shedding.Load(); i++ {
		if _, ok := q.Pop(); !ok || i > 64 {
			t.Fatal("hot ring never left shedding while draining")
		}
	}
	if rHot.depth() > rHot.lo {
		t.Fatalf("shedding cleared at depth %d, above low watermark %d", rHot.depth(), rHot.lo)
	}
	if !q.Push(hot) {
		t.Fatal("hot ring still shedding after draining to the low watermark")
	}
}

// TestQueuePushBatchWaitNeverSheds: the batch backpressure path queues every
// flow of a batch far larger than the queue, in order, with zero shed — and
// Close releases a blocked batch producer with false.
func TestQueuePushBatchWaitNeverSheds(t *testing.T) {
	q := NewIngestQueue(QueueConfig{Capacity: 2, HighWatermark: 2, LowWatermark: 1})
	batch := make([]ipfix.Flow, 12)
	for i := range batch {
		batch[i] = queueFlow(i)
	}
	done := make(chan bool, 1)
	go func() { done <- q.PushBatchWait(batch) }()
	for next := 0; next < len(batch); next++ {
		f, ok := q.Pop()
		if !ok {
			t.Fatalf("Pop refused at flow %d", next)
		}
		if f.SrcPort != uint16(next) {
			t.Fatalf("flow %d out of order: got %d", next, f.SrcPort)
		}
	}
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("PushBatchWait reported closed on an open queue")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PushBatchWait still blocked after the batch drained")
	}
	if st := q.Stats(); st.Ingested != 12 || st.Queued != 12 || st.Shed != 0 {
		t.Fatalf("stats = %+v, want 12 ingested, 12 queued, 0 shed", st)
	}

	// A blocked batch producer must observe Close.
	go func() { done <- q.PushBatchWait(batch) }()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("PushBatchWait reported success after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PushBatchWait still blocked after Close")
	}
}

// TestQueuePushWaitBackpressure: PushWait never sheds — a full queue blocks
// the producer until the consumer drains, and every offered flow is either
// queued or refused by Close.
func TestQueuePushWaitBackpressure(t *testing.T) {
	q := NewIngestQueue(QueueConfig{Capacity: 2, HighWatermark: 2, LowWatermark: 1})
	if !q.PushWait(queueFlow(0)) || !q.PushWait(queueFlow(1)) {
		t.Fatal("PushWait refused below capacity")
	}
	blocked := make(chan bool, 1)
	go func() { blocked <- q.PushWait(queueFlow(2)) }()
	select {
	case <-blocked:
		t.Fatal("PushWait returned with the queue full")
	case <-time.After(20 * time.Millisecond):
	}
	if _, ok := q.Pop(); !ok {
		t.Fatal("Pop failed")
	}
	select {
	case ok := <-blocked:
		if !ok {
			t.Fatal("PushWait reported closed after space opened")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("PushWait still blocked after a Pop made room")
	}
	st := q.Stats()
	if st.Ingested != 3 || st.Queued != 3 || st.Shed != 0 {
		t.Fatalf("stats = %+v, want 3 ingested, 3 queued, 0 shed", st)
	}

	// Close unblocks a waiting producer with false.
	waiting := make(chan bool, 1)
	go func() { waiting <- q.PushWait(queueFlow(3)) }()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case ok := <-waiting:
		if ok {
			t.Fatal("PushWait reported queued after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("PushWait still blocked after Close")
	}
}
