package core

import (
	"sync"

	"spoofscope/internal/ipfix"
	"spoofscope/internal/obs"
)

// QueueConfig tunes the bounded ingest queue in front of the live runtime.
type QueueConfig struct {
	// Capacity bounds the queue (default 4096). A full queue always sheds.
	Capacity int
	// HighWatermark starts load-shedding when the depth reaches it (default
	// 3/4 of Capacity). Shedding stops once the consumer drains the depth
	// back down to the low watermark, half of Capacity (or HighWatermark, if
	// that is lower); the hysteresis band keeps the queue from flapping in
	// and out of shedding on every flow.
	HighWatermark int
}

func (c *QueueConfig) capacity() int {
	if c.Capacity <= 0 {
		return 4096
	}
	return c.Capacity
}

func (c *QueueConfig) highWatermark() int {
	cap := c.capacity()
	if c.HighWatermark <= 0 || c.HighWatermark > cap {
		return cap * 3 / 4
	}
	return c.HighWatermark
}

func (c *QueueConfig) lowWatermark() int {
	return min(c.capacity()/2, c.highWatermark())
}

// QueueStats is a snapshot of the ingest queue's accounting. Every arrival
// is either queued or shed; nothing is dropped silently.
type QueueStats struct {
	// Ingested counts arrivals offered to the queue.
	Ingested uint64
	// Queued counts arrivals accepted into the queue.
	Queued uint64
	// Shed counts arrivals dropped by the watermark policy (or a full
	// queue). Shed flows are never classified or aggregated.
	Shed uint64
	// Depth is the current occupancy; HighWatermarkObserved is the maximum
	// occupancy ever reached.
	Depth                 int
	HighWatermarkObserved int
	// Shedding reports whether the queue is currently above the watermark
	// hysteresis band and dropping.
	Shedding bool
}

// IngestQueue is a bounded FIFO — a ring of exactly Capacity flows under one
// mutex — with watermark-based load shedding. Every call takes the lock once
// and moves its flows with at most two copies, so a runtime's one producer
// and its drain workers meet only there. PushBatch never blocks on room: from
// the high watermark until the consumer drains the ring to the low watermark
// every non-blocking arrival is shed, so a replay with the same arrival/drain
// interleaving sheds the same flows, and every shed is accounted in
// QueueStats. Consumers drain with PopBatch/TryPopBatch and park on a
// condition variable only when the ring is empty; any push or Close wakes
// every parked consumer.
//
// Every counter changes under the lock, so Stats is one consistent snapshot:
// Ingested == Queued + Shed and Depth <= Capacity in every one of them.
type IngestQueue struct {
	// journal (nil = silent) receives shed-start/shed-stop watermark
	// transition events; Recordf, called under mu, takes only the journal's
	// own lock.
	journal *obs.Journal

	mu   sync.Mutex
	ring []ipfix.Flow // len == Capacity
	head int          // index of the oldest queued flow
	// depth is the occupancy; the queued flows are ring[head:head+depth],
	// wrapping at len(ring).
	depth  int
	hi, lo int // watermarks

	ingested, queued, shed uint64
	hwmark                 int // HighWatermarkObserved
	// shedding is the watermark hysteresis state: set by the arrival that
	// brings the depth to hi, cleared by the pop that drains it to lo.
	shedding bool
	closed   bool

	// Consumers (popWaiters) park on notEmpty when the ring is empty;
	// PushBatchWait producers (pushWaiters) park on notFull when it is full.
	// The counts let a call skip the broadcast when nobody is parked.
	notEmpty    *sync.Cond
	notFull     *sync.Cond
	popWaiters  int
	pushWaiters int
}

// NewIngestQueue builds an empty queue.
func NewIngestQueue(cfg QueueConfig) *IngestQueue {
	q := &IngestQueue{
		ring: make([]ipfix.Flow, cfg.capacity()),
		hi:   cfg.highWatermark(),
		lo:   cfg.lowWatermark(),
	}
	q.notEmpty = sync.NewCond(&q.mu)
	q.notFull = sync.NewCond(&q.mu)
	return q
}

// put appends flows behind the tail, wrapping at the end of the ring, counts
// them queued, folds the new depth into the observed high watermark and wakes
// parked consumers. The caller holds mu and has checked that the flows fit.
func (q *IngestQueue) put(flows []ipfix.Flow) {
	tail := q.head + q.depth
	if tail >= len(q.ring) {
		tail -= len(q.ring)
	}
	n := copy(q.ring[tail:], flows)
	copy(q.ring, flows[n:])
	q.depth += len(flows)
	q.queued += uint64(len(flows))
	q.hwmark = max(q.hwmark, q.depth)
	// Broadcast (never Signal): a burst must wake every parked worker, or a
	// batch landing while several consumers are parked would leave all but
	// one asleep until the next push.
	if q.popWaiters > 0 {
		q.notEmpty.Broadcast()
	}
}

// take moves up to len(dst) of the oldest flows into dst, applies the
// post-pop watermark hysteresis and wakes parked producers. The caller holds
// mu.
func (q *IngestQueue) take(dst []ipfix.Flow) int {
	n := min(len(dst), q.depth)
	if n == 0 {
		return 0
	}
	// The slots are not cleared: a stale Flow keeps nothing alive but its
	// Start's Location.
	c := copy(dst[:n], q.ring[q.head:])
	copy(dst[c:n], q.ring)
	q.head += n
	if q.head >= len(q.ring) {
		q.head -= len(q.ring)
	}
	q.depth -= n
	if q.shedding && q.depth <= q.lo {
		q.shedding = false
		q.journal.Recordf(obs.EventShedStop,
			"queue drained to low watermark %d (%d shed in total); accepting all arrivals",
			q.lo, q.shed)
	}
	if q.pushWaiters > 0 {
		q.notFull.Broadcast()
	}
	return n
}

// PushBatchWait queues every flow of a batch, blocking while the ring is
// full instead of shedding; each run of flows that fits is copied in with one
// wake. It is the backpressure door for replayable sources (file readers)
// where dropping would lose data the source could simply have held back; the
// watermark shed policy never applies, and it never arms shedding either:
// non-blocking arrivals arm it themselves, and journaling shed transitions
// from a path that never sheds would put an allocation in the steady-state
// fill/park/drain cycle. False reports the queue closed before the whole
// batch could be queued (a prefix may already have been queued and remains
// consumable). The Ingested/Queued accounting is identical to PushBatch.
func (q *IngestQueue) PushBatchWait(flows []ipfix.Flow) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(flows) > 0 {
		if q.closed {
			return false
		}
		room := len(q.ring) - q.depth
		if room == 0 {
			q.pushWaiters++
			q.notFull.Wait()
			q.pushWaiters--
			continue
		}
		n := min(len(flows), room)
		q.ingested += uint64(n)
		q.put(flows[:n])
		flows = flows[n:]
	}
	return true
}

// PushBatch offers a batch of flows without waiting for room, and returns
// how many were queued. The shed rule is per arrival: while the queue is not
// shedding, arrivals are queued until the depth reaches the high watermark;
// the arrival that reaches it arms shedding, and every later arrival sheds
// until a consumer drains the ring to the low watermark. No consumer can pop
// inside the call, so the batch splits at one flow: its head is queued with
// one wake, its tail is shed. This is the collectors' ingest door: one call
// per IPFIX message, not per record.
func (q *IngestQueue) PushBatch(flows []ipfix.Flow) int {
	if len(flows) == 0 {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0
	}
	q.ingested += uint64(len(flows))
	n := 0
	if !q.shedding && q.depth < q.hi {
		n = min(len(flows), q.hi-q.depth)
		q.put(flows[:n])
	}
	if q.depth >= q.hi && !q.shedding {
		q.shedding = true
		q.journal.Recordf(obs.EventShedStart,
			"queue depth %d reached high watermark %d; non-blocking arrivals shed until drained",
			q.depth, q.hi)
	}
	q.shed += uint64(len(flows) - n)
	return n
}

// PopBatch drains up to len(dst) queued flows, blocking until at least one
// flow is available. It returns 0 only once the queue is closed and drained
// — and keeps returning the remaining flows after Close until then. The shed
// and cursor accounting is untouched: consumers observe exactly the flows
// the pushes accepted, in arrival order.
func (q *IngestQueue) PopBatch(dst []ipfix.Flow) int {
	if len(dst) == 0 {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.depth == 0 {
		if q.closed {
			return 0
		}
		q.popWaiters++
		q.notEmpty.Wait()
		q.popWaiters--
	}
	return q.take(dst)
}

// TryPopBatch drains up to len(dst) flows without blocking; it returns 0
// when the queue is empty right now (closed or not). Batch consumers use it
// to detect the idle edge — the moment to surface buffered state — before
// parking in PopBatch.
func (q *IngestQueue) TryPopBatch(dst []ipfix.Flow) int {
	if len(dst) == 0 {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.take(dst)
}

// Depth returns the current occupancy.
func (q *IngestQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth
}

// Close stops intake: subsequent Pushes shed nothing and report false, and
// PopBatch drains the remaining flows before reporting exhaustion. Every parked
// consumer and producer is woken.
func (q *IngestQueue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// Stats returns a snapshot of the accounting counters, all read at one
// instant: Ingested == Queued + Shed holds in every snapshot.
func (q *IngestQueue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueStats{
		Ingested:              q.ingested,
		Queued:                q.queued,
		Shed:                  q.shed,
		Depth:                 q.depth,
		HighWatermarkObserved: q.hwmark,
		Shedding:              q.shedding,
	}
}

// restore seeds the arrival counters from a checkpoint, so a resumed run's
// cursor continues where the checkpointed one stood.
func (q *IngestQueue) restore(ingested, queued, shed uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.ingested, q.queued, q.shed = ingested, queued, shed
}
