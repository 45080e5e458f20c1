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
	// With Rings > 1 the capacity is divided evenly across the rings.
	Capacity int
	// HighWatermark starts load-shedding when the depth reaches it
	// (default 3/4 of Capacity); LowWatermark stops shedding once the
	// consumer drains the depth back down to it (default 1/2 of Capacity).
	// The hysteresis band keeps the queue from flapping in and out of
	// shedding on every flow. With Rings > 1 the watermarks scale down to
	// per-ring thresholds in the same proportion.
	HighWatermark int
	LowWatermark  int
	// ShedSeed keys the deterministic shed decisions. Like faultnet's fault
	// schedules, a decision depends only on (seed, arrival index), so a
	// replay with the same arrival/drain interleaving sheds the same flows.
	ShedSeed int64
	// ShedFraction is the fraction of arrivals shed while above the
	// watermark (default 1 = shed everything until the queue drains).
	ShedFraction float64
	// Rings shards the queue into that many independent lock-free rings
	// (default 1). A producer picks a ring by hashing the flow's ingress
	// member, so one shard's flows stay FIFO within their ring while
	// producers and consumers on different rings never contend. Rings = 1
	// preserves the strict global FIFO of the original locked queue.
	Rings int
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
	hi := c.highWatermark()
	if c.LowWatermark <= 0 || c.LowWatermark > hi {
		lo := c.capacity() / 2
		if lo > hi {
			lo = hi
		}
		return lo
	}
	return c.LowWatermark
}

func (c *QueueConfig) shedFraction() float64 {
	if c.ShedFraction <= 0 || c.ShedFraction > 1 {
		return 1
	}
	return c.ShedFraction
}

func (c *QueueConfig) rings() int {
	if c.Rings <= 1 {
		return 1
	}
	if c.Rings > 64 {
		return 64
	}
	return c.Rings
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
	hi    int // per-ring high watermark
	lo    int // per-ring low watermark

	_    [64]byte // keep tail and head on separate cache lines
	tail atomic.Uint64
	_    [64]byte
	head atomic.Uint64
	_    [64]byte

	// shedding is this ring's watermark hysteresis state: set by a producer
	// that finds depth >= hi, cleared by a consumer that drains it to lo.
	shedding atomic.Bool
}

func newFlowRing(capacity, hi, lo int) *flowRing {
	phys := 1
	for phys < capacity+1 {
		phys <<= 1
	}
	r := &flowRing{
		slots: make([]flowSlot, phys),
		mask:  uint64(phys - 1),
		cap:   capacity,
		hi:    hi,
		lo:    lo,
	}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
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

// IngestQueue is a bounded FIFO with watermark-based deterministic load
// shedding, sharded into QueueConfig.Rings independent lock-free rings.
// Push never blocks and takes no lock on the hot path: past the high
// watermark (until the ring drains to the low watermark) arrivals are shed
// by a decision keyed to (seed, arrival index) — seeded and count-keyed like
// faultnet's fault schedules — so a replay with the same interleaving is
// reproducible, and every shed is accounted in QueueStats. Consumers drain
// with Pop/PopBatch/TryPopBatch; parking happens on a slow-path condition
// variable only when every ring is empty, and any publish or Close wakes
// every parked consumer.
//
// The ledger invariant Ingested == Queued + Shed holds for every completed
// push; a push in flight is detectable because its arrival-index increment
// lands before its queued/shed increment (see Runtime.snapshotLocked).
type IngestQueue struct {
	cfg QueueConfig
	// journal (nil = silent) receives shed-start/shed-stop watermark
	// transition events; Record only takes the journal's own lock.
	journal *obs.Journal

	rings []*flowRing

	ingested atomic.Uint64
	queued   atomic.Uint64
	shed     atomic.Uint64
	hwmark   atomic.Int64 // HighWatermarkObserved (total occupancy)
	closed   atomic.Bool

	// pushing counts producers between entry and completion of a push. The
	// locked queue linearized Push against Close; here a producer that
	// passed the closed check can still be publishing when a drained
	// consumer looks, so closed-and-drained is only final once pushing == 0.
	pushing atomic.Int64

	// rr rotates the ring a consumer scan starts from, so concurrent batch
	// consumers spread across rings instead of contending on ring 0.
	rr atomic.Uint32

	// Parking slow path: consumers (popWaiters) park when every ring is
	// empty; PushWait producers (pushWaiters) park when their ring is full.
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
	n := cfg.rings()
	capacity, hi, lo := cfg.capacity(), cfg.highWatermark(), cfg.lowWatermark()
	perCap := (capacity + n - 1) / n
	perHi := (hi + n - 1) / n
	perLo := lo / n
	if perHi > perCap {
		perHi = perCap
	}
	if perLo > perHi {
		perLo = perHi
	}
	q := &IngestQueue{cfg: cfg}
	q.rings = make([]*flowRing, n)
	for i := range q.rings {
		q.rings[i] = newFlowRing(perCap, perHi, perLo)
	}
	q.notEmpty = sync.NewCond(&q.mu)
	q.notFull = sync.NewCond(&q.mu)
	return q
}

// ringFor picks the ring for a flow by hashing its ingress member, so one
// shard's flows keep FIFO order within their ring.
func (q *IngestQueue) ringFor(f *ipfix.Flow) *flowRing {
	if len(q.rings) == 1 {
		return q.rings[0]
	}
	h := uint64(f.Ingress) * 0x9e3779b97f4a7c15
	return q.rings[(h>>32)%uint64(len(q.rings))]
}

// shedStart flips a ring into shedding, journaling the first transition.
func (q *IngestQueue) shedStart(r *flowRing) {
	if r.shedding.CompareAndSwap(false, true) {
		q.journal.Recordf(obs.EventShedStart,
			"queue depth %d reached high watermark %d; non-blocking arrivals shed until drained",
			r.depth(), r.hi)
	}
}

// shedStop clears a ring's shedding once a consumer drains it to the low
// watermark, journaling the transition.
func (q *IngestQueue) shedStop(r *flowRing) {
	if r.shedding.CompareAndSwap(true, false) {
		q.journal.Recordf(obs.EventShedStop,
			"queue drained to low watermark %d (%d shed in total); accepting all arrivals",
			r.lo, q.shed.Load())
	}
}

// shedKey maps (seed, arrival index) to [0, 1) via a splitmix64-style
// finalizer. Pure function: the same seed and index always agree.
func shedKey(seed int64, n uint64) float64 {
	x := uint64(seed) ^ (n+1)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / (1 << 53)
}

// observeDepth folds the post-push total occupancy into the observed high
// watermark.
func (q *IngestQueue) observeDepth() {
	d := int64(q.totalDepth())
	for {
		cur := q.hwmark.Load()
		if d <= cur || q.hwmark.CompareAndSwap(cur, d) {
			return
		}
	}
}

func (q *IngestQueue) totalDepth() int {
	d := 0
	for _, r := range q.rings {
		d += r.depth()
	}
	return d
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

// Push offers one flow: PushBatch of a one-flow batch. It reports whether
// the flow was queued; false means it was shed (watermark policy or full
// ring) or the queue is closed.
func (q *IngestQueue) Push(f ipfix.Flow) bool {
	one := [1]ipfix.Flow{f}
	return q.PushBatch(one[:]) == 1
}

// PushWait queues f with backpressure: PushBatchWait of a one-flow batch.
// False reports the queue was closed before the flow could be queued.
func (q *IngestQueue) PushWait(f ipfix.Flow) bool {
	one := [1]ipfix.Flow{f}
	return q.PushBatchWait(one[:])
}

// PushBatchWait queues every flow of a batch, blocking while a flow's ring is
// full instead of shedding, and wakes parked consumers once per batch. It is
// the backpressure door for replayable sources (file readers, the cluster
// worker's flow frames) where dropping would lose data the source could
// simply have held back; the watermark shed policy never applies. False
// reports the queue closed before the whole batch could be queued (a prefix
// may already have been queued and remains consumable). The Ingested/Queued
// cursor accounting is identical to PushBatch.
func (q *IngestQueue) PushBatchWait(flows []ipfix.Flow) bool {
	q.pushing.Add(1)
	defer q.pushing.Add(-1)
	queuedAny := false
	for i := range flows {
		r := q.ringFor(&flows[i])
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
// queued or shed (watermark policy, or a full ring) on its own (seed, arrival
// index) key, and parked consumers are woken once for the whole batch. It
// returns how many flows were queued. This is the collectors' ingest door:
// one wake per IPFIX message, not per record. Lock-free: concurrent producers
// contend only on a CAS ticket (and on the shared arrival counter that keys
// shed decisions).
func (q *IngestQueue) PushBatch(flows []ipfix.Flow) int {
	if len(flows) == 0 {
		return 0
	}
	q.pushing.Add(1)
	defer q.pushing.Add(-1)
	if q.closed.Load() {
		return 0
	}
	queued := 0
	for i := range flows {
		r := q.ringFor(&flows[i])
		// The arrival index is claimed before the queue/shed decision lands,
		// so a quiescence check that reads Ingested == Queued+Shed can never
		// miss an in-flight push.
		n := q.ingested.Add(1) - 1
		d := r.depth()
		if d >= r.hi {
			q.shedStart(r)
		}
		// A failed offer is a ring physically full (concurrent producers
		// overshot the logical bound): same accounting as the depth check.
		if d >= r.cap ||
			(r.shedding.Load() && shedKey(q.cfg.ShedSeed, n) < q.cfg.shedFraction()) ||
			!r.offer(flows[i]) {
			q.shed.Add(1)
			continue
		}
		q.queued.Add(1)
		queued++
		if r.depth() >= r.hi {
			q.shedStart(r)
		}
	}
	if queued > 0 {
		q.observeDepth()
		q.wakeConsumers()
	}
	return queued
}

// drained reports whether a consumer claimed anything, folding the post-pop
// watermark hysteresis and producer wake in one place.
func (q *IngestQueue) drained(r *flowRing, n int) {
	if n == 0 {
		return
	}
	if r.shedding.Load() && r.depth() <= r.lo {
		q.shedStop(r)
	}
	q.wakeProducers()
}

// tryTake scans the rings from a rotating start and drains up to len(dst)
// flows from the first non-empty ring — one ring per call, so a batch never
// interleaves two rings and per-ring FIFO order is visible to the consumer.
func (q *IngestQueue) tryTake(dst []ipfix.Flow) int {
	nr := len(q.rings)
	start := 0
	if nr > 1 {
		start = int(q.rr.Add(1)-1) % nr
	}
	for i := 0; i < nr; i++ {
		r := q.rings[(start+i)%nr]
		if n := r.take(dst); n > 0 {
			q.drained(r, n)
			return n
		}
	}
	return 0
}

// Pop removes the oldest flow, blocking until one arrives. After Close it
// keeps returning the remaining flows, then reports false once drained.
// With Rings > 1 "oldest" is per-ring: rings are scanned in rotating order
// and each ring is FIFO.
func (q *IngestQueue) Pop() (ipfix.Flow, bool) {
	var one [1]ipfix.Flow
	for {
		if q.tryTake(one[:]) == 1 {
			return one[0], true
		}
		if q.parkEmpty() {
			return ipfix.Flow{}, false
		}
	}
}

// parkEmpty blocks the consumer until a flow is published or the queue
// closes. True means closed-and-drained: the caller should report
// exhaustion. False means retry the drain.
func (q *IngestQueue) parkEmpty() bool {
	q.mu.Lock()
	q.popWaiters.Add(1)
	for {
		if q.totalDepth() > 0 {
			break
		}
		if q.closed.Load() {
			// Closed: drained is only final once no producer is mid-push —
			// a Push that read closed == false may still be publishing, and
			// its flow must be consumed, not stranded.
			if q.pushing.Load() == 0 && q.totalDepth() == 0 {
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
// — the batch analogue of Pop's false. The shed and cursor accounting is
// untouched: batch consumers observe exactly the flows Push accepted, in
// per-ring arrival order within the batch.
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

// Depth returns the current total occupancy across rings.
func (q *IngestQueue) Depth() int { return q.totalDepth() }

// Close stops intake: subsequent Pushes shed nothing and report false, and
// Pop drains the remaining flows before reporting exhaustion. Every parked
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
	shedding := false
	for _, r := range q.rings {
		if r.shedding.Load() {
			shedding = true
			break
		}
	}
	return QueueStats{
		Ingested:              q.ingested.Load(),
		Queued:                q.queued.Load(),
		Shed:                  q.shed.Load(),
		Depth:                 q.totalDepth(),
		HighWatermarkObserved: int(q.hwmark.Load()),
		Shedding:              shedding,
	}
}

// restore seeds the arrival counters from a checkpoint so shed decisions
// continue the same (seed, index) key sequence after a resume.
func (q *IngestQueue) restore(ingested, queued, shed uint64) {
	q.ingested.Store(ingested)
	q.queued.Store(queued)
	q.shed.Store(shed)
}
