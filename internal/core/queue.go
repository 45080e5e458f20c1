package core

import (
	"runtime"
	"sync"
	"sync/atomic"

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

// flowSlot is one ring cell: the flow plus the Vyukov sequence word that
// carries the publish/consume handshake between producers and consumers.
type flowSlot struct {
	seq  atomic.Uint64
	flow ipfix.Flow
}

// flowRing is one bounded lock-free MPMC ring (Vyukov's bounded-queue
// discipline): producers claim a tail ticket with CAS, write the slot, and
// publish by storing seq = ticket+1; consumers claim head tickets the same
// way and release the slot for the next lap with seq = ticket+capacity.
// The slot seq is the only synchronization on the data — the atomic store
// that publishes a slot happens-before the atomic load that claims it.
//
// The physical slot count is the logical capacity rounded up to a power of
// two (mask indexing); the logical bound is enforced by the depth check on
// the push path, so a test-sized capacity of 2 or 7 still behaves exactly.
type flowRing struct {
	slots []flowSlot
	mask  uint64
	cap   int // logical capacity
	hi    int // high watermark
	lo    int // low watermark

	// shedding is the watermark hysteresis state: set by a producer that
	// finds depth >= hi, cleared by a consumer that drains it to lo. It
	// changes only at those transitions, so it shares the read-mostly line
	// above rather than one of the two below.
	shedding atomic.Bool

	// tail and head each get a cache line of their own, and the trailing pad
	// keeps whatever follows the ring in IngestQueue off head's.
	_    [64]byte
	tail atomic.Uint64
	_    [64]byte
	head atomic.Uint64
	_    [64]byte
}

func (r *flowRing) init(capacity, hi, lo int) {
	phys := 1
	for phys < capacity+1 {
		phys <<= 1
	}
	r.slots = make([]flowSlot, phys)
	r.mask = uint64(phys - 1)
	r.cap, r.hi, r.lo = capacity, hi, lo
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
}

// depth is the reserved occupancy: claimed-but-unpublished slots count as
// occupied, claimed-but-unread slots count as drained. Both biases are
// conservative for the watermark and quiescence checks that read it.
func (r *flowRing) depth() int {
	// Load tail before head: a concurrent pop between the two loads can
	// only shrink the result, never yield a phantom depth.
	t := r.tail.Load()
	h := r.head.Load()
	if t <= h {
		return 0
	}
	return int(t - h)
}

// offer claims a tail slot and publishes f. False means the ring is
// physically full right now.
func (r *flowRing) offer(f ipfix.Flow) bool {
	for {
		pos := r.tail.Load()
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos:
			if r.tail.CompareAndSwap(pos, pos+1) {
				slot.flow = f
				slot.seq.Store(pos + 1)
				return true
			}
		case seq < pos:
			return false // full: slot not yet released by the consumer lap
		}
		// seq > pos: another producer won this ticket; reload tail.
	}
}

// take claims up to len(dst) published flows from the ring head. It never
// blocks; zero means the ring is empty (or every published slot was claimed
// by another consumer first).
func (r *flowRing) take(dst []ipfix.Flow) int {
	total := 0
	for total < len(dst) {
		// Claim a contiguous block of published slots with ONE head CAS:
		// every slot below tail has been ticketed by a producer, so after
		// the claim succeeds each claimed slot's publish (seq == pos+1) is
		// at most a store away. This amortizes the consumer-side CAS over
		// the whole batch instead of paying one per flow.
		pos := r.head.Load()
		avail := int64(r.tail.Load() - pos)
		if avail <= 0 {
			break
		}
		want := len(dst) - total
		if int(avail) < want {
			want = int(avail)
		}
		// A claimed-but-unpublished slot (producer between CAS and seq
		// store) must not stall the batch indefinitely long: probe the
		// first slot before claiming so an empty-but-ticketed ring still
		// reports empty to the parking logic.
		if r.slots[pos&r.mask].seq.Load() != pos+1 {
			break
		}
		if !r.head.CompareAndSwap(pos, pos+uint64(want)) {
			continue
		}
		for i := 0; i < want; i++ {
			p := pos + uint64(i)
			slot := &r.slots[p&r.mask]
			// Spin for the producer's publish; it is already past its tail
			// ticket, so the store is imminent.
			for slot.seq.Load() != p+1 {
				runtime.Gosched()
			}
			dst[total] = slot.flow
			slot.flow = ipfix.Flow{}
			slot.seq.Store(p + r.mask + 1)
			total++
		}
	}
	return total
}

// IngestQueue is a bounded FIFO — one lock-free ring — with watermark-based
// load shedding. PushBatch never blocks and takes no lock on the hot path: from
// the high watermark until the consumer drains the ring to the low watermark
// every non-blocking arrival is shed, so a replay with the same
// arrival/drain interleaving sheds the same flows, and every shed is
// accounted in QueueStats. Consumers drain with PopBatch/TryPopBatch; parking
// happens on a slow-path condition variable only when the ring is empty, and
// any publish or Close wakes every parked consumer.
//
// The ledger invariant Ingested == Queued + Shed holds for every completed
// push; a push in flight is detectable because its arrival-index increment
// lands before its queued/shed increment (see Runtime.snapshotLocked).
type IngestQueue struct {
	// journal (nil = silent) receives shed-start/shed-stop watermark
	// transition events; Record only takes the journal's own lock.
	journal *obs.Journal

	ring flowRing

	ingested atomic.Uint64
	queued   atomic.Uint64
	shed     atomic.Uint64
	hwmark   atomic.Int64 // HighWatermarkObserved
	closed   atomic.Bool

	// pushing counts producers between entry and completion of a push. The
	// locked queue linearized a push against Close; here a producer that
	// passed the closed check can still be publishing when a drained
	// consumer looks, so closed-and-drained is only final once pushing == 0.
	pushing atomic.Int64

	// Parking slow path: consumers (popWaiters) park when the ring is empty;
	// PushBatchWait producers (pushWait) park when it is full.
	// The waiter counts let the lock-free fast paths skip the mutex
	// entirely unless someone is actually parked.
	mu         sync.Mutex
	notEmpty   *sync.Cond
	notFull    *sync.Cond
	popWaiters atomic.Int32
	pushWait   atomic.Int32
}

// NewIngestQueue builds an empty queue.
func NewIngestQueue(cfg QueueConfig) *IngestQueue {
	q := &IngestQueue{}
	q.ring.init(cfg.capacity(), cfg.highWatermark(), cfg.lowWatermark())
	q.notEmpty = sync.NewCond(&q.mu)
	q.notFull = sync.NewCond(&q.mu)
	return q
}

// shedStart flips the queue into shedding, journaling the first transition.
func (q *IngestQueue) shedStart() {
	if q.ring.shedding.CompareAndSwap(false, true) {
		q.journal.Recordf(obs.EventShedStart,
			"queue depth %d reached high watermark %d; non-blocking arrivals shed until drained",
			q.ring.depth(), q.ring.hi)
	}
}

// shedStop clears shedding once a consumer drains the ring to the low
// watermark, journaling the transition.
func (q *IngestQueue) shedStop() {
	if q.ring.shedding.CompareAndSwap(true, false) {
		q.journal.Recordf(obs.EventShedStop,
			"queue drained to low watermark %d (%d shed in total); accepting all arrivals",
			q.ring.lo, q.shed.Load())
	}
}

// observeDepth folds the post-push occupancy into the observed high
// watermark.
func (q *IngestQueue) observeDepth() {
	d := int64(q.ring.depth())
	for {
		cur := q.hwmark.Load()
		if d <= cur || q.hwmark.CompareAndSwap(cur, d) {
			return
		}
	}
}

// wakeConsumers broadcasts to every parked consumer. It runs only when
// someone is actually parked — the publish fast path costs one atomic load.
// Broadcast (never Signal): a burst push or a close must wake all parked
// workers, or a batch landing while several consumers are parked would leave
// all but one asleep until the next push.
func (q *IngestQueue) wakeConsumers() {
	if q.popWaiters.Load() > 0 {
		q.mu.Lock()
		q.notEmpty.Broadcast()
		q.mu.Unlock()
	}
}

func (q *IngestQueue) wakeProducers() {
	if q.pushWait.Load() > 0 {
		q.mu.Lock()
		q.notFull.Broadcast()
		q.mu.Unlock()
	}
}

// PushBatchWait queues every flow of a batch, blocking while the ring is
// full instead of shedding, and wakes parked consumers once per batch. It is
// the backpressure door for replayable sources (file readers) where
// dropping would lose data the source could simply have held back; the
// watermark shed policy never applies. False reports the queue closed
// before the whole batch could be queued (a prefix may already have been
// queued and remains consumable). The Ingested/Queued cursor accounting is
// identical to PushBatch.
func (q *IngestQueue) PushBatchWait(flows []ipfix.Flow) bool {
	q.pushing.Add(1)
	defer q.pushing.Add(-1)
	r := &q.ring
	queuedAny := false
	for i := range flows {
		for {
			if q.closed.Load() {
				if queuedAny {
					q.wakeConsumers()
				}
				return false
			}
			// The watermark is not consulted and shedding is never armed
			// here: non-blocking arrivals arm it themselves on entry
			// (PushBatch checks depth >= hi before deciding), and journaling
			// shed transitions from a path that never sheds would put an
			// allocation in the steady-state fill/park/drain cycle.
			if r.depth() < r.cap && r.offer(flows[i]) {
				q.ingested.Add(1)
				q.queued.Add(1)
				q.observeDepth()
				break
			}
			// Full: room can only come from consumers, and they may still be
			// parked (this batch's earlier flows were queued without a wake),
			// so announce before parking or neither side would ever run.
			q.wakeConsumers()
			q.mu.Lock()
			q.pushWait.Add(1)
			for r.depth() >= r.cap && !q.closed.Load() {
				q.notFull.Wait()
			}
			q.pushWait.Add(-1)
			q.mu.Unlock()
		}
		queuedAny = true
	}
	if queuedAny {
		q.wakeConsumers()
	}
	return true
}

// PushBatch offers a batch of flows without ever blocking: each arrival is
// queued or shed (watermark policy, or a full ring) on its own, and parked
// consumers are woken once for the whole batch. It returns how many flows
// were queued. This is the collectors' ingest door: one wake per IPFIX
// message, not per record. Lock-free: concurrent producers contend only on a
// CAS ticket and on the shared arrival counter.
func (q *IngestQueue) PushBatch(flows []ipfix.Flow) int {
	if len(flows) == 0 {
		return 0
	}
	q.pushing.Add(1)
	defer q.pushing.Add(-1)
	if q.closed.Load() {
		return 0
	}
	r := &q.ring
	queued := 0
	for i := range flows {
		// The arrival is counted before the queue/shed decision lands, so a
		// quiescence check that reads Ingested == Queued+Shed can never miss
		// an in-flight push.
		q.ingested.Add(1)
		d := r.depth()
		if d >= r.hi {
			q.shedStart()
		}
		// A failed offer is a ring physically full (concurrent producers
		// overshot the logical bound): same accounting as the depth check.
		if d >= r.cap || r.shedding.Load() || !r.offer(flows[i]) {
			q.shed.Add(1)
			continue
		}
		q.queued.Add(1)
		queued++
		if r.depth() >= r.hi {
			q.shedStart()
		}
	}
	if queued > 0 {
		q.observeDepth()
		q.wakeConsumers()
	}
	return queued
}

// tryTake drains up to len(dst) flows without blocking and, when it claimed
// any, applies the post-pop watermark hysteresis and wakes blocked producers.
func (q *IngestQueue) tryTake(dst []ipfix.Flow) int {
	r := &q.ring
	n := r.take(dst)
	if n > 0 {
		if r.shedding.Load() && r.depth() <= r.lo {
			q.shedStop()
		}
		q.wakeProducers()
	}
	return n
}

// parkEmpty blocks the consumer until a flow is published or the queue
// closes. True means closed-and-drained: the caller should report
// exhaustion. False means retry the drain.
func (q *IngestQueue) parkEmpty() bool {
	q.mu.Lock()
	q.popWaiters.Add(1)
	for {
		if q.ring.depth() > 0 {
			break
		}
		if q.closed.Load() {
			// Closed: drained is only final once no producer is mid-push —
			// a push that read closed == false may still be publishing, and
			// its flow must be consumed, not stranded.
			if q.pushing.Load() == 0 && q.ring.depth() == 0 {
				q.popWaiters.Add(-1)
				q.mu.Unlock()
				return true
			}
			// A racing push is in flight (or just landed): let it settle
			// and rescan instead of parking — the shed path never wakes us.
			q.popWaiters.Add(-1)
			q.mu.Unlock()
			runtime.Gosched()
			return false
		}
		q.notEmpty.Wait()
	}
	q.popWaiters.Add(-1)
	q.mu.Unlock()
	return false
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
	for {
		if n := q.tryTake(dst); n > 0 {
			return n
		}
		if q.parkEmpty() {
			return 0
		}
	}
}

// TryPopBatch drains up to len(dst) flows without blocking; it returns 0
// when the queue is empty right now (closed or not). Batch consumers use it
// to detect the idle edge — the moment to surface buffered state — before
// parking in PopBatch.
func (q *IngestQueue) TryPopBatch(dst []ipfix.Flow) int {
	if len(dst) == 0 {
		return 0
	}
	return q.tryTake(dst)
}

// Depth returns the current occupancy.
func (q *IngestQueue) Depth() int { return q.ring.depth() }

// Close stops intake: subsequent Pushes shed nothing and report false, and
// PopBatch drains the remaining flows before reporting exhaustion. Every parked
// consumer and producer is woken.
func (q *IngestQueue) Close() {
	q.closed.Store(true)
	q.mu.Lock()
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
	q.mu.Unlock()
}

// Stats returns a snapshot of the accounting counters. The counters are
// individually exact; under concurrent pushes the triple (Ingested, Queued,
// Shed) may be read mid-push, in which case Ingested > Queued+Shed — the
// signature Runtime.snapshotLocked uses to detect in-flight arrivals.
func (q *IngestQueue) Stats() QueueStats {
	return QueueStats{
		Ingested:              q.ingested.Load(),
		Queued:                q.queued.Load(),
		Shed:                  q.shed.Load(),
		Depth:                 q.ring.depth(),
		HighWatermarkObserved: int(q.hwmark.Load()),
		Shedding:              q.ring.shedding.Load(),
	}
}

// restore seeds the arrival counters from a checkpoint, so a resumed run's
// cursor continues where the checkpointed one stood.
func (q *IngestQueue) restore(ingested, queued, shed uint64) {
	q.ingested.Store(ingested)
	q.queued.Store(queued)
	q.shed.Store(shed)
}
