package core

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"spoofscope/internal/ipfix"
)

func queueFlow(i int) ipfix.Flow {
	return ipfix.Flow{SrcPort: uint16(i), Packets: 1, Bytes: 60}
}

// pop takes the oldest flow through PopBatch, blocking until one arrives;
// false once the queue is closed and drained.
func pop(q *IngestQueue) (ipfix.Flow, bool) {
	var one [1]ipfix.Flow
	if q.PopBatch(one[:]) == 0 {
		return ipfix.Flow{}, false
	}
	return one[0], true
}

// awaitParked yields until the waiter count reads want: the goroutines under
// test have parked on the queue's condition variable.
func awaitParked(t *testing.T, q *IngestQueue, waiters *int, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		q.mu.Lock()
		got := *waiters
		q.mu.Unlock()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines parked, want %d", got, want)
		}
		runtime.Gosched()
	}
}

func TestQueueFIFOAndClose(t *testing.T) {
	q := NewIngestQueue(QueueConfig{Capacity: 8})
	for i := 0; i < 5; i++ {
		if q.PushBatch([]ipfix.Flow{queueFlow(i)}) != 1 {
			t.Fatalf("push %d shed below watermark", i)
		}
	}
	q.Close()
	if q.PushBatch([]ipfix.Flow{queueFlow(99)}) == 1 {
		t.Fatal("push accepted after Close")
	}
	for i := 0; i < 5; i++ {
		f, ok := pop(q)
		if !ok || f.SrcPort != uint16(i) {
			t.Fatalf("pop %d: got (%d, %v), want FIFO order", i, f.SrcPort, ok)
		}
	}
	if _, ok := pop(q); ok {
		t.Fatal("pop reported a flow after drain")
	}
	st := q.Stats()
	if st.Ingested != 5 || st.Queued != 5 || st.Shed != 0 {
		t.Fatalf("stats = %+v, want 5 ingested, 5 queued, 0 shed", st)
	}
}

func TestQueueWatermarkHysteresis(t *testing.T) {
	// The low watermark is half the capacity: 4.
	q := NewIngestQueue(QueueConfig{Capacity: 8, HighWatermark: 6})
	// Fill to the high watermark: 6 accepted.
	for i := 0; i < 6; i++ {
		if q.PushBatch([]ipfix.Flow{queueFlow(i)}) != 1 {
			t.Fatalf("push %d shed below high watermark", i)
		}
	}
	if !q.Stats().Shedding {
		t.Fatal("not shedding at high watermark")
	}
	// Above the watermark everything sheds.
	for i := 6; i < 10; i++ {
		if q.PushBatch([]ipfix.Flow{queueFlow(i)}) == 1 {
			t.Fatalf("push %d accepted while shedding", i)
		}
	}
	// Drain to just above the low watermark: still shedding.
	pop(q)
	if !q.Stats().Shedding {
		t.Fatal("shedding cleared above low watermark")
	}
	if q.PushBatch([]ipfix.Flow{queueFlow(10)}) == 1 {
		t.Fatal("push accepted inside hysteresis band")
	}
	// Drain to the low watermark: shedding stops.
	pop(q)
	if q.Stats().Shedding {
		t.Fatal("still shedding at low watermark")
	}
	if q.PushBatch([]ipfix.Flow{queueFlow(11)}) != 1 {
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
	// High watermark at capacity: nothing sheds before the ring is full, and
	// a full ring sheds like any other crossing — until drained to half.
	q := NewIngestQueue(QueueConfig{Capacity: 4, HighWatermark: 4})
	for i := 0; i < 4; i++ {
		if q.PushBatch([]ipfix.Flow{queueFlow(i)}) != 1 {
			t.Fatalf("push %d shed with room left", i)
		}
	}
	if q.PushBatch([]ipfix.Flow{queueFlow(4)}) == 1 {
		t.Fatal("push accepted into a full ring")
	}
	pop(q)
	if q.PushBatch([]ipfix.Flow{queueFlow(5)}) == 1 {
		t.Fatal("push accepted at depth 3, above the low watermark of 2")
	}
	pop(q)
	if q.PushBatch([]ipfix.Flow{queueFlow(6)}) != 1 {
		t.Fatal("push shed after draining to the low watermark")
	}
	if st := q.Stats(); st.Shed != 2 || st.Queued != 5 || st.Ingested != 7 {
		t.Fatalf("stats = %+v, want 2 shed, 5 queued, 7 ingested", st)
	}
}

// TestQueueShedDeterministic: which flows are shed is a function of the
// arrival/drain interleaving alone — the property that makes a faulted replay
// reproducible — and of nothing else: the same schedule offered as one-flow
// batches, or each burst as one batch, sheds the same flows, because the
// policy is decided per arrival, not per call.
func TestQueueShedDeterministic(t *testing.T) {
	perFlow := func(q *IngestQueue, burst []ipfix.Flow) {
		for i := range burst {
			q.PushBatch(burst[i : i+1])
		}
	}
	batch := func(q *IngestQueue, burst []ipfix.Flow) { q.PushBatch(burst) }
	run := func(offer func(*IngestQueue, []ipfix.Flow)) (accepted []uint16, st QueueStats) {
		q := NewIngestQueue(QueueConfig{Capacity: 16, HighWatermark: 12})
		i := 0
		push := func(n int) {
			burst := make([]ipfix.Flow, n)
			for k := range burst {
				burst[k] = queueFlow(i)
				i++
			}
			offer(q, burst)
		}
		drain := func(n int) {
			// Bounded by occupancy so the schedule never blocks.
			for ; n > 0 && q.Depth() > 0; n-- {
				f, _ := pop(q)
				accepted = append(accepted, f.SrcPort)
			}
		}
		// A fixed interleaving that crosses the watermark mid-burst, drains
		// into the hysteresis band (still shedding), then below it.
		push(14)
		drain(2)
		push(3)
		drain(6)
		push(20)
		st = q.Stats()
		drain(st.Depth)
		return accepted, st
	}
	a1, s1 := run(perFlow)
	// 12 of 14 queued; at depth 10 all 3 shed; at depth 4 shedding has
	// stopped and 8 of 20 climb back to the watermark.
	if s1.Queued != 20 || s1.Shed != 17 {
		t.Fatalf("stats = %+v, want 20 queued and 17 shed", s1)
	}
	if uint64(len(a1)) != s1.Queued {
		t.Fatalf("popped %d flows, counters say %d were queued", len(a1), s1.Queued)
	}
	if a2, s2 := run(perFlow); s2 != s1 || !slices.Equal(a2, a1) {
		t.Fatalf("identical replays diverged: %+v %v vs %+v %v", s1, a1, s2, a2)
	}
	if ab, sb := run(batch); sb != s1 || !slices.Equal(ab, a1) {
		t.Fatalf("a burst shed differently from its one-flow batches:\n one-flow %+v %v\n burst    %+v %v",
			s1, a1, sb, ab)
	}
}

func TestQueuePopBatchFIFO(t *testing.T) {
	q := NewIngestQueue(QueueConfig{Capacity: 16})
	for i := 0; i < 10; i++ {
		q.PushBatch([]ipfix.Flow{queueFlow(i)})
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
	q.PushBatch([]ipfix.Flow{queueFlow(1)})
	q.PushBatch([]ipfix.Flow{queueFlow(2)})
	if n := q.TryPopBatch(buf); n != 2 {
		t.Fatalf("TryPopBatch = %d, want 2", n)
	}
	if buf[0].SrcPort != 1 || buf[1].SrcPort != 2 {
		t.Fatal("TryPopBatch broke FIFO order")
	}
}

// TestQueueRingWraparound laps a 5-slot ring forty times with 3-flow pops,
// so pushes and pops split across the ring's end at every offset: the
// two-copy wrap must keep FIFO order and never lose or duplicate a flow.
func TestQueueRingWraparound(t *testing.T) {
	q := NewIngestQueue(QueueConfig{Capacity: 5, HighWatermark: 5})
	buf := make([]ipfix.Flow, 3)
	next := 0
	pushed := 0
	for lap := 0; lap < 40; lap++ {
		for i := 0; i < 5; i++ {
			if q.PushBatch([]ipfix.Flow{queueFlow(pushed)}) != 1 {
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
	q := NewIngestQueue(QueueConfig{Capacity: 256})
	const consumers = 4
	const burst = 64
	// Every batch a consumer drains is reported here; at most one per flow.
	drained := make(chan int, burst)
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
				drained <- n
			}
		}()
	}
	// Let every consumer park on the empty queue, then land one burst.
	awaitParked(t, q, &q.popWaiters, consumers)
	batch := make([]ipfix.Flow, burst)
	for i := range batch {
		batch[i] = queueFlow(i)
	}
	if queued := q.PushBatch(batch); queued != burst {
		t.Fatalf("burst queued %d of %d below watermark", queued, burst)
	}
	deadline := time.After(5 * time.Second)
	for got := 0; got != burst; {
		select {
		case n := <-drained:
			got += n
		case <-deadline:
			t.Fatalf("drained %d of %d: parked consumers never woke", got, burst)
		}
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

// TestQueueStatsConsistentUnderPushes: a Stats snapshot is taken at one
// instant, so a reader running beside a producer and a consumer never sees
// an arrival counted as ingested but not yet as queued or shed, nor a depth
// beyond the capacity. The producer alternates shedding pushes that cross
// the watermark with backpressured pushes that fill the ring.
func TestQueueStatsConsistentUnderPushes(t *testing.T) {
	const capacity = 64
	q := NewIngestQueue(QueueConfig{Capacity: capacity, HighWatermark: 48})
	batch := make([]ipfix.Flow, 40)
	for i := range batch {
		batch[i] = queueFlow(i)
	}
	go func() {
		defer q.Close()
		for i := 0; i < 2000; i++ {
			q.PushBatch(batch)
			q.PushBatchWait(batch)
		}
	}()
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		buf := make([]ipfix.Flow, 16)
		for q.PopBatch(buf) > 0 {
		}
	}()
	var reads, bad int
	var first QueueStats
	for open := true; open; reads++ {
		select {
		case <-consumed:
			open = false
		default:
		}
		st := q.Stats()
		if st.Ingested != st.Queued+st.Shed || st.Depth > capacity {
			if bad == 0 {
				first = st
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d snapshots inconsistent, first %+v", bad, reads, first)
	}
	if st := q.Stats(); st.Ingested != 2000*2*uint64(len(batch)) || st.Depth != 0 {
		t.Fatalf("final stats = %+v, want %d ingested and an empty ring", st, 2000*2*len(batch))
	}
}

// TestQueuePushBatchWaitNeverSheds: the batch backpressure path queues every
// flow of a batch far larger than the queue, in order, with zero shed — and
// Close releases a blocked batch producer with false.
func TestQueuePushBatchWaitNeverSheds(t *testing.T) {
	q := NewIngestQueue(QueueConfig{Capacity: 2, HighWatermark: 2})
	batch := make([]ipfix.Flow, 12)
	for i := range batch {
		batch[i] = queueFlow(i)
	}
	done := make(chan bool, 1)
	go func() { done <- q.PushBatchWait(batch) }()
	for next := 0; next < len(batch); next++ {
		f, ok := pop(q)
		if !ok {
			t.Fatalf("pop refused at flow %d", next)
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
	awaitParked(t, q, &q.pushWaiters, 1)
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

// TestQueuePushWaitBackpressure: a one-flow PushBatchWait never sheds — a
// full queue blocks the producer until the consumer drains, and every offered
// flow is either queued or refused by Close.
func TestQueuePushWaitBackpressure(t *testing.T) {
	q := NewIngestQueue(QueueConfig{Capacity: 2, HighWatermark: 2})
	if !q.PushBatchWait([]ipfix.Flow{queueFlow(0)}) || !q.PushBatchWait([]ipfix.Flow{queueFlow(1)}) {
		t.Fatal("PushBatchWait refused below capacity")
	}
	blocked := make(chan bool, 1)
	go func() { blocked <- q.PushBatchWait([]ipfix.Flow{queueFlow(2)}) }()
	select {
	case <-blocked:
		t.Fatal("PushBatchWait returned with the queue full")
	case <-time.After(20 * time.Millisecond):
	}
	if _, ok := pop(q); !ok {
		t.Fatal("pop failed")
	}
	select {
	case ok := <-blocked:
		if !ok {
			t.Fatal("PushBatchWait reported closed after space opened")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("PushBatchWait still blocked after a pop made room")
	}
	st := q.Stats()
	if st.Ingested != 3 || st.Queued != 3 || st.Shed != 0 {
		t.Fatalf("stats = %+v, want 3 ingested, 3 queued, 0 shed", st)
	}

	// Close unblocks a waiting producer with false.
	waiting := make(chan bool, 1)
	go func() { waiting <- q.PushBatchWait([]ipfix.Flow{queueFlow(3)}) }()
	awaitParked(t, q, &q.pushWaiters, 1)
	q.Close()
	select {
	case ok := <-waiting:
		if ok {
			t.Fatal("PushBatchWait reported queued after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("PushBatchWait still blocked after Close")
	}
}
