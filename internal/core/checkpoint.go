package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
)

// Checkpoint is a crash-safe snapshot of a live run: the full aggregate
// state plus the ingest cursor that positions a replay. Snapshots are taken
// at quiescent points (empty ingest queue), so every flow the source
// delivered before the cursor is accounted — either aggregated (Processed)
// or deterministically shed (Shed) — and a resumed run that re-feeds the
// source from flow index Ingested onward reproduces the uninterrupted run
// exactly.
type Checkpoint struct {
	// Ingested / Queued / Shed mirror the ingest queue's counters at
	// snapshot time; Ingested is the replay cursor.
	Ingested uint64
	Queued   uint64
	Shed     uint64
	// Processed counts flows aggregated (Queued minus nothing: the
	// snapshot is quiescent, so every queued flow has been processed).
	Processed uint64
	// Epoch is the routing-state generation that was live at snapshot time;
	// Swaps counts the promotions that produced it.
	Epoch Epoch
	Swaps uint64
	// Degraded records whether the routing feed was known stale at snapshot
	// time — a resumed run carries the open feed gap forward instead of
	// silently unmarking its verdicts fresh — and StaleVerdicts counts the
	// verdicts issued while degraded, so RuntimeStats survive the crash.
	Degraded      bool
	StaleVerdicts uint64
	// Agg is the full aggregate state.
	Agg *Aggregator
}

// Checkpoint wire format: magic, version, cursor block, then the aggregate
// with every map written in sorted key order, so equal logical state always
// encodes to identical bytes (the property the kill-and-resume acceptance
// test asserts).
const (
	checkpointMagic   = "SPCK"
	checkpointVersion = 1
)

// The codec idiom, shared with internal/cluster/wire.go: big-endian
// fixed-width scalars, written by appending into bytes already reserved and
// read through a netx.Cursor over a slice already in memory. Room is reserved
// and length is checked once per record or per page of entries, never per
// field, so no primitive has an error branch and none hands a stack array to
// an interface (which would make every field a heap object).

var be = binary.BigEndian

// Fixed record lengths of the format.
const (
	counterLen  = 3 * 8
	cpHeaderLen = len(checkpointMagic) + 2 + 7*8 + 1
	aggHeadLen  = 8 + 8 + counterLen + 8 + int(numTrafficClasses)*counterLen
	memberLen   = 4 + 4 + counterLen + int(numTrafficClasses)*counterLen + 8
	slash8Len   = 4 + 256*8
	dstLen      = 4 + 8 + 8 + 4
)

const (
	// cpChunk is the buffer EncodeCheckpoint streams through. With the
	// key-sorting scratch it is all the memory an encode holds, and none of
	// it outlives the call.
	cpChunk = 32 << 10
	// cpSpan bounds one reservation, so that any reservation fits an empty
	// chunk and a flush never wastes more than an eighth of one.
	cpSpan = 4 << 10
)

// cpEnc encodes a checkpoint by appending to b. With a writer, b is a fixed
// chunk handed to the writer whenever the next record does not fit; without
// one, b grows and ends up holding the whole encoding. The key slices are
// scratch for sorting uint32-kinded map keys, reused from one map to the
// next: outer holds a map's sorted keys, inner each of its containers' in
// turn, and tmp is netx.RadixSort's other half.
type cpEnc struct {
	b   []byte
	w   io.Writer
	err error

	outer, inner, tmp []uint32
}

func (e *cpEnc) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.b)
	}
	e.b = e.b[:0]
}

// grow reserves n bytes (at most cpSpan) at the end of e.b and returns them
// for the caller to fill in place.
func (e *cpEnc) grow(n int) []byte {
	if cap(e.b)-len(e.b) < n {
		if e.w != nil {
			e.flush()
		} else {
			e.b = slices.Grow(e.b, n)
		}
	}
	l := len(e.b)
	e.b = e.b[:l+n]
	return e.b[l:]
}

func (e *cpEnc) u32(v uint32) { be.PutUint32(e.grow(4), v) }

// u32pair writes the (key, length) pair that opens most containers.
func (e *cpEnc) u32pair(a, b uint32) {
	p := e.grow(8)
	be.PutUint32(p, a)
	be.PutUint32(p[4:], b)
}

// spans reserves room for n elements of elem bytes each, a span at a time,
// and has fill write elements [lo, hi) into each reservation.
func (e *cpEnc) spans(n, elem int, fill func(p []byte, lo, hi int)) {
	for lo := 0; lo < n; {
		hi := min(n, lo+cpSpan/elem)
		fill(e.grow(elem*(hi-lo)), lo, hi)
		lo = hi
	}
}

func (e *cpEnc) u64s(vs []uint64) {
	e.spans(len(vs), 8, func(p []byte, lo, hi int) {
		for i, v := range vs[lo:hi] {
			be.PutUint64(p[8*i:], v)
		}
	})
}

func (e *cpEnc) u32s(vs []uint32) {
	e.spans(len(vs), 4, func(p []byte, lo, hi int) {
		for i, v := range vs[lo:hi] {
			be.PutUint32(p[4*i:], v)
		}
	})
}

func (e *cpEnc) counters(cs []Counter) {
	e.u32(uint32(len(cs)))
	e.spans(len(cs), counterLen, func(p []byte, lo, hi int) {
		for i, c := range cs[lo:hi] {
			putCounter(p[counterLen*i:], c)
		}
	})
}

// keyed writes a map's (uint32-kinded key, uint64 value) entries in the order
// of keys, which are its sorted keys.
func keyed[K ~uint32](e *cpEnc, keys []uint32, m map[K]uint64) {
	e.spans(len(keys), 12, func(p []byte, lo, hi int) {
		for i, k := range keys[lo:hi] {
			be.PutUint32(p[12*i:], k)
			be.PutUint64(p[12*i+4:], m[K(k)])
		}
	})
}

func putCounter(p []byte, c Counter) {
	be.PutUint64(p, c.Flows)
	be.PutUint64(p[8:], c.Packets)
	be.PutUint64(p[16:], c.Bytes)
}

// sortedKeys returns m's keys in ascending order, in buf's storage when it
// is large enough. It is for the few spilled sizes of a histogram page;
// uint32-kinded keys, which attack traffic makes many, go through
// netx.RadixSort.
func sortedKeys[K cmp.Ordered, V any](buf []K, m map[K]V) []K {
	buf = slices.Grow(buf[:0], len(m))
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// sortedU32Keys returns m's keys in ascending order in buf's storage, which
// must have room for len(m) keys for the collection not to allocate. tmp is
// netx.RadixSort's other half and must have the same room.
func sortedU32Keys[K ~uint32, V any](buf, tmp []uint32, m map[K]V) []uint32 {
	buf = buf[:0]
	for k := range m {
		buf = append(buf, uint32(k))
	}
	netx.RadixSort(buf, tmp)
	return buf
}

// sortedOuterKeys returns a map of containers' keys in ascending order in
// e.outer. It also makes room in e.inner for the widest container's keys and
// in e.tmp for the larger of that and the map's own, so that sorting each
// container in turn never grows the scratch again — one allocation per map at
// most for the keys and one for the containers, not one per record-setting
// container. e.inner and e.tmp share that second allocation: a container's
// keys fill at most its first widest slots, and e.tmp is the rest.
func sortedOuterKeys[K ~uint32, V any](e *cpEnc, m map[K]V, width func(V) int) []uint32 {
	e.outer = slices.Grow(e.outer[:0], len(m))
	widest := 0
	for k, v := range m {
		e.outer = append(e.outer, uint32(k))
		widest = max(widest, width(v))
	}
	end := widest + max(len(m), widest)
	e.inner = slices.Grow(e.inner[:0], end)
	e.tmp = e.inner[widest:end]
	netx.RadixSort(e.outer, e.tmp)
	return e.outer
}

func (e *cpEnc) checkpoint(cp *Checkpoint) {
	a := cp.Agg
	p := e.grow(cpHeaderLen + aggHeadLen)
	p = p[copy(p, checkpointMagic):]
	be.PutUint16(p, checkpointVersion)
	p = p[2:]
	for _, v := range [...]uint64{
		cp.Ingested, cp.Queued, cp.Shed, cp.Processed, uint64(cp.Epoch), cp.Swaps, cp.StaleVerdicts,
	} {
		be.PutUint64(p, v)
		p = p[8:]
	}
	p[0] = 0
	if cp.Degraded {
		p[0] = 1
	}
	p = p[1:]
	be.PutUint64(p, uint64(a.start.UnixNano()))
	be.PutUint64(p[8:], uint64(a.bucket))
	putCounter(p[16:], a.GrandTotal)
	be.PutUint64(p[16+counterLen:], a.UnknownPorts)
	p = p[24+counterLen:]
	for c := range a.Total {
		putCounter(p[counterLen*c:], a.Total[c])
	}

	e.members(a.members)
	e.series(&a.Series)
	a.SizeHist.encode(e)
	a.Ports.encode(e)
	e.slash8(&a.Slash8Src)
	e.slash8(&a.Slash8Dst)
	e.fanIn(&a.FanIn)
	e.pairs(a.TriggerPairs)
	e.pairs(a.ResponsePairs)
	e.counters(a.TriggerSeries)
	e.counters(a.ResponseSeries)
}

// members writes the per-member stats sorted by port, each member's invalid
// origins sorted by AS number.
func (e *cpEnc) members(members map[uint32]*MemberStats) {
	ports := sortedOuterKeys(e, members, func(m *MemberStats) int { return len(m.InvalidOrigins) })
	e.u32(uint32(len(members)))
	for _, port := range ports {
		m := members[port]
		p := e.grow(memberLen + 4)
		be.PutUint32(p, port)
		be.PutUint32(p[4:], uint32(m.ASN))
		putCounter(p[8:], m.Total)
		p = p[8+counterLen:]
		for c := range m.ByClass {
			putCounter(p[counterLen*c:], m.ByClass[c])
		}
		p = p[len(m.ByClass)*counterLen:]
		be.PutUint64(p, m.RouterIPInvalid)
		be.PutUint32(p[8:], uint32(len(m.InvalidOrigins)))
		keyed(e, sortedU32Keys(e.inner, e.tmp, m.InvalidOrigins), m.InvalidOrigins)
	}
}

// classCount counts the classes has reports an entry for: the count that
// opens a per-class section, whose entries are then written in class order by
// walking the array.
func classCount(has func(c int) bool) uint32 {
	n := uint32(0)
	for c := range NumTrafficClasses {
		if has(c) {
			n++
		}
	}
	return n
}

func (e *cpEnc) series(series *[numTrafficClasses][]uint64) {
	e.u32(classCount(func(c int) bool { return len(series[c]) > 0 }))
	for c, s := range series {
		if len(s) > 0 {
			e.u32pair(uint32(c), uint32(len(s)))
			e.u64s(s)
		}
	}
}

func (e *cpEnc) slash8(bins *[numTrafficClasses]*[256]uint64) {
	e.u32(classCount(func(c int) bool { return bins[c] != nil }))
	for c, b := range bins {
		if b == nil {
			continue
		}
		p := e.grow(slash8Len)
		be.PutUint32(p, uint32(c))
		for i, v := range b {
			be.PutUint64(p[4+8*i:], v)
		}
	}
}

// fanIn writes destination fan-in per tracked class: destinations sorted,
// each destination's source set sorted.
func (e *cpEnc) fanIn(fan *[numTrafficClasses]map[netx.Addr]*DstStats) {
	e.u32(classCount(func(c int) bool { return fan[c] != nil }))
	for c, m := range fan {
		if m == nil {
			continue
		}
		dsts := sortedOuterKeys(e, m, func(ds *DstStats) int { return len(ds.Srcs) })
		e.u32pair(uint32(c), uint32(len(m)))
		for _, dst := range dsts {
			ds := m[netx.Addr(dst)]
			p := e.grow(dstLen)
			be.PutUint32(p, dst)
			be.PutUint64(p[4:], ds.Packets)
			be.PutUint64(p[12:], ds.SrcOverflow)
			be.PutUint32(p[20:], uint32(ds.SrcCount()))
			switch {
			case ds.Srcs != nil:
				e.u32s(sortedU32Keys(e.inner, e.tmp, ds.Srcs))
			case ds.has1:
				e.u32(uint32(ds.src1))
			}
		}
	}
}

// pairs writes one NTP trigger/response pair map, both levels sorted.
func (e *cpEnc) pairs(pairs map[netx.Addr]map[netx.Addr]uint64) {
	outers := sortedOuterKeys(e, pairs, func(inner map[netx.Addr]uint64) int { return len(inner) })
	e.u32(uint32(len(pairs)))
	for _, outer := range outers {
		inner := pairs[netx.Addr(outer)]
		e.u32pair(outer, uint32(len(inner)))
		keyed(e, sortedU32Keys(e.inner, e.tmp, inner), inner)
	}
}

// EncodeCheckpoint writes cp to w in the versioned binary format. Equal
// logical state encodes to identical bytes regardless of map iteration
// order. The encoding streams through one fixed chunk, so the memory it
// takes does not grow with the state.
func EncodeCheckpoint(w io.Writer, cp *Checkpoint) error {
	e := cpEnc{w: w, b: make([]byte, 0, cpChunk)}
	e.checkpoint(cp)
	e.flush()
	if e.err != nil {
		return fmt.Errorf("core: encoding checkpoint: %w", e.err)
	}
	return nil
}

// AppendCheckpoint appends cp's encoding — the bytes EncodeCheckpoint writes
// — to dst and returns the extended slice: the form for a caller that is
// building a frame around the checkpoint and owns the buffer.
func AppendCheckpoint(dst []byte, cp *Checkpoint) []byte {
	e := cpEnc{b: dst}
	e.checkpoint(cp)
	return e.b
}

// cpDec reads a checkpoint through a netx.Cursor over bytes already in
// memory. Every declared element count goes through Fits before anything is
// allocated for it, so decoder memory is bounded by the input's length,
// never by a forged count.
type cpDec struct{ netx.Cursor }

func (d *cpDec) count(what string, elem int) int { return d.Fits(what, d.U32(), elem) }

// header reads the magic, the version and the cursor block.
func (d *cpDec) header() (Checkpoint, error) {
	p := d.Take(cpHeaderLen - 1)
	if p == nil {
		return Checkpoint{}, fmt.Errorf("core: decoding checkpoint: %w", d.Err())
	}
	if magic := p[:len(checkpointMagic)]; string(magic) != checkpointMagic {
		return Checkpoint{}, fmt.Errorf("core: not a checkpoint (magic %q)", magic)
	}
	p = p[len(checkpointMagic):]
	if v := be.Uint16(p); v != checkpointVersion {
		return Checkpoint{}, fmt.Errorf("core: unsupported checkpoint version %d", v)
	}
	p = p[2:]
	cp := Checkpoint{
		Ingested:      be.Uint64(p),
		Queued:        be.Uint64(p[8:]),
		Shed:          be.Uint64(p[16:]),
		Processed:     be.Uint64(p[24:]),
		Epoch:         Epoch(be.Uint64(p[32:])),
		Swaps:         be.Uint64(p[40:]),
		StaleVerdicts: be.Uint64(p[48:]),
		Degraded:      d.Bool("degraded"),
	}
	if err := d.Err(); err != nil {
		return Checkpoint{}, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	return cp, nil
}

// CheckpointHeader decodes only the cursor block at the front of an encoded
// checkpoint (Agg stays nil) — what a receiver needs to check a checkpoint
// against the position it was shipped with, without paying for the decode.
func CheckpointHeader(b []byte) (Checkpoint, error) {
	d := cpDec{netx.NewCursor(b)}
	return d.header()
}

// DecodeCheckpoint reads a checkpoint previously written by
// EncodeCheckpoint, rejecting unknown magic or versions. It reads in to its
// end and decodes from memory; callers that already hold the bytes use
// DecodeCheckpointBytes.
func DecodeCheckpoint(in io.Reader) (*Checkpoint, error) {
	var buf bytes.Buffer
	if sized, ok := in.(interface{ Len() int }); ok {
		// *bytes.Reader, *bytes.Buffer: one allocation and one copy. The
		// slack lets ReadFrom see the end of input without growing again.
		buf.Grow(sized.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(in); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	return DecodeCheckpointBytes(buf.Bytes())
}

// DecodeCheckpointBytes decodes a checkpoint from b in place: it is
// MergeCheckpointBytes into a fresh aggregator with the encoded start and
// bucket. Nothing in the result aliases b. Bytes after the checkpoint's end
// are ignored.
func DecodeCheckpointBytes(b []byte) (*Checkpoint, error) {
	var start, bucket int64
	if len(b) >= cpHeaderLen+16 {
		start, bucket = int64(be.Uint64(b[cpHeaderLen:])), int64(be.Uint64(b[cpHeaderLen+8:]))
	}
	a := NewAggregator(time.Unix(0, start).UTC(), time.Duration(bucket))
	cp, err := MergeCheckpointBytes(a, b)
	if err != nil {
		return nil, err
	}
	cp.Agg = a
	return &cp, nil
}

// MergeCheckpointBytes folds the aggregate encoded in b into a and returns
// the cursor block (Agg nil). The result is exactly a.Merge of the decoded
// aggregate — counters add, keyed entries are looked up or created through
// a's node allocator, fan-in sources go through the same cap — without
// building the decoded aggregate first. The encoded start and bucket must be
// a's, which is checked before anything is folded. Every section's keys must
// strictly ascend, as the canonical encoding writes them, so no entry is
// folded twice. On error a's state is unspecified. Nothing in a comes to
// alias b.
func MergeCheckpointBytes(a *Aggregator, b []byte) (Checkpoint, error) {
	d := cpDec{netx.NewCursor(b)}
	head, err := d.header()
	if err != nil {
		return Checkpoint{}, err
	}
	d.aggregate(a)
	if err := d.Err(); err != nil {
		return Checkpoint{}, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	return head, nil
}

// follows reports whether key strictly follows *prev, the key before it in
// its section (i is key's index there), and stores key in *prev. It is on
// every entry's path, so it inlines; the caller latches the error through
// disorder.
func follows[K cmp.Ordered](i int, prev *K, key K) bool {
	ok := i == 0 || key > *prev
	*prev = key
	return ok
}

// disorder latches the error for a section whose keys do not strictly
// ascend, unless an earlier one is latched already.
func (d *cpDec) disorder(what string) {
	d.refuse("%s keys do not strictly ascend", what)
}

// The decoder's domain is the range of Aggregator.Add: a checkpoint carrying
// state no run of Add can produce is refused, not kept somewhere the
// aggregate has no place for. refuse latches that error, unless an earlier
// one is latched already; primary and some are its two common checks.
func (d *cpDec) refuse(format string, args ...any) {
	d.Fail(fmt.Errorf("core: checkpoint "+format, args...))
}

// primary reports whether a single-class section's class key is one
// primaryClass yields (Regular, Bogon, Unrouted or Invalid-FULL), refusing
// it if not.
func (d *cpDec) primary(section string, class uint32) bool {
	switch class {
	case uint32(TCRegular), uint32(TCBogon), uint32(TCUnrouted), uint32(TCInvalidFull):
		return true
	}
	d.refuse("%s class %d is not Regular, Bogon, Unrouted or Invalid-FULL", section, class)
	return false
}

// some reports whether a class's entry holds at least one element, refusing
// it if not: Add creates a series with its first bucket and a histogram with
// its first bin.
func (d *cpDec) some(section string, class uint32, n int) bool {
	if n == 0 {
		d.refuse("%s of class %d is empty", section, class)
	}
	return d.Err() == nil
}

// within reports whether a series of n buckets is one Add can build,
// refusing it if not: Add leaves out a flow whose bucket index is
// maxSeriesBuckets or more.
func (d *cpDec) within(section string, n int) bool {
	if n > maxSeriesBuckets {
		d.refuse("%s of %d buckets is longer than %d", section, n, maxSeriesBuckets)
	}
	return d.Err() == nil
}

func addCounter(c *Counter, p []byte) {
	c.Flows += be.Uint64(p)
	c.Packets += be.Uint64(p[8:])
	c.Bytes += be.Uint64(p[16:])
}

// aggregate folds the encoded aggregate into a, section by section.
func (d *cpDec) aggregate(a *Aggregator) {
	p := d.Take(aggHeadLen)
	if p == nil {
		return
	}
	if start, bucket := int64(be.Uint64(p)), time.Duration(be.Uint64(p[8:])); start != a.start.UnixNano() || bucket != a.bucket {
		d.refuse("series start at %v in %v buckets, the receiver's at %v in %v buckets",
			time.Unix(0, start).UTC(), bucket, a.start.UTC(), a.bucket)
		return
	}
	addCounter(&a.GrandTotal, p[16:])
	a.UnknownPorts += be.Uint64(p[16+counterLen:])
	p = p[24+counterLen:]
	for c := range a.Total {
		addCounter(&a.Total[c], p[counterLen*c:])
	}
	d.members(a)
	d.series(a)
	a.SizeHist.fold(d)
	a.Ports.fold(d)
	d.slash8(&a.Slash8Src, &a.nodes)
	d.slash8(&a.Slash8Dst, &a.nodes)
	d.fanIn(a)
	d.pairs(&a.TriggerPairs, &a.nodes)
	d.pairs(&a.ResponsePairs, &a.nodes)
	a.TriggerSeries = d.counters(a.TriggerSeries)
	a.ResponseSeries = d.counters(a.ResponseSeries)
}

// members folds the member records. A member new to a takes the encoded AS
// number and an origin map sized to the encoded count; one a holds keeps its
// own, as in Merge.
func (d *cpDec) members(a *Aggregator) {
	var port uint32
	for i := range d.count("member", memberLen+4) {
		p := d.Take(memberLen + 4)
		if p == nil || !follows(i, &port, be.Uint32(p)) {
			d.disorder("member port")
			return
		}
		n := d.Fits("origin", be.Uint32(p[memberLen:]), 12)
		ms := a.members[port]
		if ms == nil {
			ms = a.nodes.newMember(port, n)
			ms.ASN = bgp.ASN(be.Uint32(p[4:]))
			a.members[port] = ms
		}
		addCounter(&ms.Total, p[8:])
		p = p[8+counterLen:]
		for c := range ms.ByClass {
			addCounter(&ms.ByClass[c], p[counterLen*c:])
		}
		ms.RouterIPInvalid += be.Uint64(p[len(ms.ByClass)*counterLen:])
		var origin bgp.ASN
		for j, q := 0, d.Take(12*n); len(q) > 0; j, q = j+1, q[12:] {
			if !follows(j, &origin, bgp.ASN(be.Uint32(q))) {
				d.disorder("origin")
				return
			}
			ms.InvalidOrigins[origin] += be.Uint64(q[4:])
		}
	}
}

func (d *cpDec) series(a *Aggregator) {
	var class uint32
	for i := range d.count("series", 8) {
		if !follows(i, &class, d.U32()) {
			d.disorder("series class")
			return
		}
		n := d.count("series bucket", 8)
		if !d.primary("series", class) || !d.some("series", class, n) || !d.within("series", n) {
			return
		}
		p := d.Take(8 * n)
		s := a.Series[class]
		if s == nil {
			s = a.nodes.newSeries(TrafficClass(class))
		}
		if len(s) < n {
			s = append(s, make([]uint64, n-len(s))...)
		}
		for j := range n {
			s[j] += be.Uint64(p[8*j:])
		}
		a.Series[class] = s
	}
}

func (d *cpDec) slash8(bins *[numTrafficClasses]*[256]uint64, nodes *nodeAlloc) {
	var class uint32
	for i := range d.count("/8 class", slash8Len) {
		p := d.Take(slash8Len)
		if p == nil || !follows(i, &class, be.Uint32(p)) {
			d.disorder("/8 class")
			return
		}
		if !d.primary("/8", class) {
			return
		}
		b := bins[class]
		if b == nil {
			b = nodes.new8()
			bins[class] = b
		}
		for j := range b {
			b[j] += be.Uint64(p[4+8*j:])
		}
	}
}

// fanIn folds destination fan-in. Sources go through addSrc, so the inline
// single source and fanInCap behave as in Merge; a destination new to a that
// carries several gets a set sized to their count up front. A class a holds
// no destination of — NewAggregator's empty maps included — gets a map sized
// to the section, and since its keys strictly ascend, each one is new there:
// none is looked up, and their records come in one run of the allocator's
// slabs, as large as the section. The encoder writes every tracked class,
// with or without destinations, so a section that names fewer is refused.
func (d *cpDec) fanIn(a *Aggregator) {
	classes := d.count("fan-in class", 8)
	if tracked := int(classCount(func(c int) bool { return a.FanIn[c] != nil })); classes != tracked {
		d.refuse("fan-in section names %d classes, not the %d whose destinations are tracked", classes, tracked)
		return
	}
	var class uint32
	for i := range classes {
		if !follows(i, &class, d.U32()) {
			d.disorder("fan-in class")
			return
		}
		n := d.count("fan-in destination", dstLen)
		if class >= uint32(numTrafficClasses) || a.FanIn[class] == nil {
			d.refuse("fan-in class %d is not one whose destinations are tracked", class)
			return
		}
		m := a.FanIn[class]
		fresh := len(m) == 0
		if fresh && n > 0 {
			m = make(map[netx.Addr]*DstStats, n)
			a.FanIn[class] = m
		}
		var run []DstStats
		if fresh {
			run = a.nodes.newDsts(n)
		}
		var dst netx.Addr
		for j := range n {
			p := d.Take(dstLen)
			if p == nil || !follows(j, &dst, netx.Addr(be.Uint32(p))) {
				d.disorder("fan-in destination")
				return
			}
			k := d.Fits("fan-in source", be.Uint32(p[20:]), 4)
			var ds *DstStats
			if !fresh {
				ds = m[dst]
			}
			if ds == nil {
				if fresh {
					ds = &run[j]
				} else {
					ds = a.nodes.newDst()
				}
				if k > 1 {
					ds.Srcs = a.nodes.newSrcs(k)
				}
				m[dst] = ds
			}
			ds.Packets += be.Uint64(p[4:])
			ds.SrcOverflow += be.Uint64(p[12:])
			// Into a set these k cannot take past fanInCap, addSrc is a
			// plain insert; the call is skipped there.
			set := ds.Srcs != nil && len(ds.Srcs)+k <= fanInCap
			var src netx.Addr
			for s, q := 0, d.Take(4*k); len(q) > 0; s, q = s+1, q[4:] {
				if !follows(s, &src, netx.Addr(be.Uint32(q))) {
					d.disorder("fan-in source")
					return
				}
				if set {
					ds.Srcs[src] = struct{}{}
				} else {
					ds.addSrc(src, &a.nodes)
				}
			}
		}
	}
}

// pairs folds NTP pairs. Into an empty table — a fresh aggregator's — the
// section goes as fanIn's does into an empty class: a table sized to it, and
// no lookup of keys that strictly ascend and so are all new.
func (d *cpDec) pairs(pairs *map[netx.Addr]map[netx.Addr]uint64, nodes *nodeAlloc) {
	n := d.count("pair", 8)
	fresh := len(*pairs) == 0
	if fresh && n > 0 {
		*pairs = make(map[netx.Addr]map[netx.Addr]uint64, n)
	}
	var outer netx.Addr
	for i := range n {
		if !follows(i, &outer, netx.Addr(d.U32())) {
			d.disorder("pair")
			return
		}
		k := d.count("pair entry", 12)
		var m map[netx.Addr]uint64
		if !fresh {
			m = (*pairs)[outer]
		}
		if m == nil {
			m = nodes.newPairs(k)
			(*pairs)[outer] = m
		}
		var inner netx.Addr
		for j, p := 0, d.Take(12*k); len(p) > 0; j, p = j+1, p[12:] {
			if !follows(j, &inner, netx.Addr(be.Uint32(p))) {
				d.disorder("pair entry")
				return
			}
			m[inner] += be.Uint64(p[4:])
		}
	}
}

func (d *cpDec) counters(s []Counter) []Counter {
	n := d.count("NTP series bucket", counterLen)
	if !d.within("NTP series", n) {
		return s
	}
	p := d.Take(counterLen * n)
	if len(s) < n {
		s = append(s, make([]Counter, n-len(s))...)
	}
	for i := range n {
		addCounter(&s[i], p[counterLen*i:])
	}
	return s
}

// WriteCheckpointFile atomically persists cp to path (see WriteFileAtomic).
func WriteCheckpointFile(path string, cp *Checkpoint) error {
	return WriteFileAtomic(path, 0o666, func(w io.Writer) error { return EncodeCheckpoint(w, cp) })
}

// WriteFileAtomic is the one way durable state reaches disk — checkpoints,
// the cluster's shard ledger, a worker's identity file. write fills a
// temporary sibling of path, which is synced and then renamed into place, so
// a crash mid-write leaves either the previous file or the new one, never a
// torn or empty one.
func WriteFileAtomic(path string, perm os.FileMode, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadCheckpointFile loads a checkpoint written by WriteCheckpointFile.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpointBytes(b)
}
