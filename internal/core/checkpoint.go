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
// read through a cursor over a slice already in memory. Room is reserved and
// length is checked once per record or per page of entries, never per field,
// so no primitive has an error branch and none hands a stack array to an
// interface (which would make every field a heap object).

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
// scratch for sorting map keys, reused from one map to the next.
type cpEnc struct {
	b   []byte
	w   io.Writer
	err error

	ports        []uint32
	asns         []bgp.ASN
	outer, inner []netx.Addr
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

func (e *cpEnc) addrs(vs []netx.Addr) {
	e.spans(len(vs), 4, func(p []byte, lo, hi int) {
		for i, v := range vs[lo:hi] {
			be.PutUint32(p[4*i:], uint32(v))
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
func keyed[K ~uint32](e *cpEnc, keys []K, m map[K]uint64) {
	e.spans(len(keys), 12, func(p []byte, lo, hi int) {
		for i, k := range keys[lo:hi] {
			be.PutUint32(p[12*i:], uint32(k))
			be.PutUint64(p[12*i+4:], m[k])
		}
	})
}

func putCounter(p []byte, c Counter) {
	be.PutUint64(p, c.Flows)
	be.PutUint64(p[8:], c.Packets)
	be.PutUint64(p[16:], c.Bytes)
}

// sortedKeys returns m's keys in ascending order, in buf's storage when it
// is large enough.
func sortedKeys[K cmp.Ordered, V any](buf []K, m map[K]V) []K {
	buf = slices.Grow(buf[:0], len(m))
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// sortedOuterKeys is sortedKeys for a map of containers: it also makes room
// in inner for the widest container's keys, so that sorting each container in
// turn never grows the scratch again — one allocation per map at most, not
// one per record-setting container.
func sortedOuterKeys[K, I cmp.Ordered, V any](outer []K, inner []I, m map[K]V, width func(V) int) ([]K, []I) {
	outer = slices.Grow(outer[:0], len(m))
	widest := 0
	for k, v := range m {
		outer = append(outer, k)
		widest = max(widest, width(v))
	}
	slices.Sort(outer)
	return outer, slices.Grow(inner[:0], widest)
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
	e.series(a.Series)
	a.SizeHist.encode(e)
	a.Ports.encode(e)
	e.slash8(a.Slash8Src)
	e.slash8(a.Slash8Dst)
	e.fanIn(a.FanIn)
	e.pairs(a.TriggerPairs)
	e.pairs(a.ResponsePairs)
	e.counters(a.TriggerSeries)
	e.counters(a.ResponseSeries)
}

// members writes the per-member stats sorted by port, each member's invalid
// origins sorted by AS number.
func (e *cpEnc) members(members map[uint32]*MemberStats) {
	e.ports, e.asns = sortedOuterKeys(e.ports, e.asns, members,
		func(m *MemberStats) int { return len(m.InvalidOrigins) })
	e.u32(uint32(len(members)))
	for _, port := range e.ports {
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
		keyed(e, sortedKeys(e.asns, m.InvalidOrigins), m.InvalidOrigins)
	}
}

func (e *cpEnc) series(series map[TrafficClass][]uint64) {
	var buf [numTrafficClasses]TrafficClass
	e.u32(uint32(len(series)))
	for _, c := range sortedKeys(buf[:0], series) {
		e.u32pair(uint32(c), uint32(len(series[c])))
		e.u64s(series[c])
	}
}

func (e *cpEnc) slash8(bins map[TrafficClass]*[256]uint64) {
	var buf [numTrafficClasses]TrafficClass
	e.u32(uint32(len(bins)))
	for _, c := range sortedKeys(buf[:0], bins) {
		p := e.grow(slash8Len)
		be.PutUint32(p, uint32(c))
		for i, v := range bins[c] {
			be.PutUint64(p[4+8*i:], v)
		}
	}
}

// fanIn writes destination fan-in per tracked class: destinations sorted,
// each destination's source set sorted.
func (e *cpEnc) fanIn(fan map[TrafficClass]map[netx.Addr]*DstStats) {
	var buf [numTrafficClasses]TrafficClass
	e.u32(uint32(len(fan)))
	for _, c := range sortedKeys(buf[:0], fan) {
		m := fan[c]
		e.outer, e.inner = sortedOuterKeys(e.outer, e.inner, m,
			func(ds *DstStats) int { return len(ds.Srcs) })
		e.u32pair(uint32(c), uint32(len(m)))
		for _, dst := range e.outer {
			ds := m[dst]
			p := e.grow(dstLen)
			be.PutUint32(p, uint32(dst))
			be.PutUint64(p[4:], ds.Packets)
			be.PutUint64(p[12:], ds.SrcOverflow)
			be.PutUint32(p[20:], uint32(ds.SrcCount()))
			switch {
			case ds.Srcs != nil:
				e.addrs(sortedKeys(e.inner, ds.Srcs))
			case ds.has1:
				e.u32(uint32(ds.src1))
			}
		}
	}
}

// pairs writes one NTP trigger/response pair map, both levels sorted.
func (e *cpEnc) pairs(pairs map[netx.Addr]map[netx.Addr]uint64) {
	e.outer, e.inner = sortedOuterKeys(e.outer, e.inner, pairs,
		func(inner map[netx.Addr]uint64) int { return len(inner) })
	e.u32(uint32(len(pairs)))
	for _, outer := range e.outer {
		inner := pairs[outer]
		e.u32pair(uint32(outer), uint32(len(inner)))
		keyed(e, sortedKeys(e.inner, inner), inner)
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

// cpDec reads a checkpoint through a cursor over bytes already in memory,
// latching the first error. Every declared element count is checked against
// the bytes that are left before anything is allocated for it, so decoder
// memory is bounded by the input's length, never by a forged count.
type cpDec struct {
	b   []byte
	err error
}

// take consumes n bytes, or latches an error and returns nil.
func (d *cpDec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *cpDec) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return be.Uint32(p)
}

// fits validates a declared count of elements of at least elem bytes each
// against the input that is left; it returns 0 once an error is latched, so
// loops over a count need no test of their own.
func (d *cpDec) fits(what string, n uint32, elem int) int {
	if d.err != nil {
		return 0
	}
	if uint64(n)*uint64(elem) > uint64(len(d.b)) {
		d.err = fmt.Errorf("core: checkpoint %s count %d exceeds the %d bytes left", what, n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *cpDec) count(what string, elem int) int { return d.fits(what, d.u32(), elem) }

func getCounter(p []byte) Counter {
	return Counter{Flows: be.Uint64(p), Packets: be.Uint64(p[8:]), Bytes: be.Uint64(p[16:])}
}

// header reads the magic, the version and the cursor block.
func (d *cpDec) header() (Checkpoint, error) {
	p := d.take(cpHeaderLen)
	if p == nil {
		return Checkpoint{}, fmt.Errorf("core: decoding checkpoint: %w", d.err)
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
	}
	switch flag := p[56]; flag {
	case 0:
	case 1:
		cp.Degraded = true
	default:
		return Checkpoint{}, fmt.Errorf("core: checkpoint degraded flag %d is not a bool", flag)
	}
	return cp, nil
}

// CheckpointHeader decodes only the cursor block at the front of an encoded
// checkpoint (Agg stays nil) — what a receiver needs to check a checkpoint
// against the position it was shipped with, without paying for the decode.
func CheckpointHeader(b []byte) (Checkpoint, error) {
	d := cpDec{b: b}
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

// DecodeCheckpointBytes decodes a checkpoint from b in place. Nothing in the
// result aliases b. Bytes after the checkpoint's end are ignored.
func DecodeCheckpointBytes(b []byte) (*Checkpoint, error) {
	d := cpDec{b: b}
	head, err := d.header()
	if err != nil {
		return nil, err
	}
	cp := &head
	if p := d.take(aggHeadLen); p != nil {
		a := NewAggregator(time.Unix(0, int64(be.Uint64(p))).UTC(), time.Duration(be.Uint64(p[8:])))
		cp.Agg = a
		a.GrandTotal = getCounter(p[16:])
		a.UnknownPorts = be.Uint64(p[16+counterLen:])
		p = p[24+counterLen:]
		for c := range a.Total {
			a.Total[c] = getCounter(p[counterLen*c:])
		}
		d.members(a.members)
		d.series(a.Series)
		a.SizeHist.decode(&d)
		a.Ports.decode(&d)
		d.slash8(a.Slash8Src)
		d.slash8(a.Slash8Dst)
		d.fanIn(a.FanIn)
		d.pairs(a.TriggerPairs)
		d.pairs(a.ResponsePairs)
		a.TriggerSeries = d.counters()
		a.ResponseSeries = d.counters()
	}
	if d.err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", d.err)
	}
	return cp, nil
}

// members decodes the member records into one slab: an allocation per
// section and one per member's origin map, none per field.
func (d *cpDec) members(members map[uint32]*MemberStats) {
	slab := make([]MemberStats, d.count("member", memberLen+4))
	for i := range slab {
		p := d.take(memberLen + 4)
		if p == nil {
			return
		}
		m := &slab[i]
		m.Port, m.ASN = be.Uint32(p), bgp.ASN(be.Uint32(p[4:]))
		m.Total = getCounter(p[8:])
		p = p[8+counterLen:]
		for c := range m.ByClass {
			m.ByClass[c] = getCounter(p[counterLen*c:])
		}
		p = p[len(m.ByClass)*counterLen:]
		m.RouterIPInvalid = be.Uint64(p)
		n := d.fits("origin", be.Uint32(p[8:]), 12)
		m.InvalidOrigins = make(map[bgp.ASN]uint64, n)
		p = d.take(12 * n)
		for ; len(p) > 0; p = p[12:] {
			m.InvalidOrigins[bgp.ASN(be.Uint32(p))] = be.Uint64(p[4:])
		}
		members[m.Port] = m
	}
}

func (d *cpDec) series(series map[TrafficClass][]uint64) {
	for i := d.count("series", 8); i > 0 && d.err == nil; i-- {
		c := TrafficClass(d.u32())
		s := make([]uint64, d.count("series bucket", 8))
		p := d.take(8 * len(s))
		for j := range s {
			s[j] = be.Uint64(p[8*j:])
		}
		series[c] = s
	}
}

func (d *cpDec) slash8(bins map[TrafficClass]*[256]uint64) {
	for i := d.count("/8 class", slash8Len); i > 0; i-- {
		p := d.take(slash8Len)
		if p == nil {
			return
		}
		b := new([256]uint64)
		for j := range b {
			b[j] = be.Uint64(p[4+8*j:])
		}
		bins[TrafficClass(be.Uint32(p))] = b
	}
}

func (d *cpDec) fanIn(fan map[TrafficClass]map[netx.Addr]*DstStats) {
	for i := d.count("fan-in class", 8); i > 0 && d.err == nil; i-- {
		c := TrafficClass(d.u32())
		slab := make([]DstStats, d.count("fan-in destination", dstLen))
		m := make(map[netx.Addr]*DstStats, len(slab))
		for j := range slab {
			p := d.take(dstLen)
			if p == nil {
				return
			}
			ds := &slab[j]
			ds.Packets, ds.SrcOverflow = be.Uint64(p[4:]), be.Uint64(p[12:])
			n := d.fits("fan-in source", be.Uint32(p[20:]), 4)
			srcs := d.take(4 * n)
			if n == 1 {
				// Match the fresh-aggregator representation: a single
				// source stays inline, no map.
				ds.src1, ds.has1 = netx.Addr(be.Uint32(srcs)), true
			} else if n > 0 {
				ds.Srcs = make(map[netx.Addr]struct{}, n)
				for ; len(srcs) > 0; srcs = srcs[4:] {
					ds.Srcs[netx.Addr(be.Uint32(srcs))] = struct{}{}
				}
			}
			m[netx.Addr(be.Uint32(p))] = ds
		}
		fan[c] = m
	}
}

func (d *cpDec) pairs(pairs map[netx.Addr]map[netx.Addr]uint64) {
	for i := d.count("pair", 8); i > 0 && d.err == nil; i-- {
		outer := netx.Addr(d.u32())
		n := d.count("pair entry", 12)
		inner := make(map[netx.Addr]uint64, n)
		for p := d.take(12 * n); len(p) > 0; p = p[12:] {
			inner[netx.Addr(be.Uint32(p))] = be.Uint64(p[4:])
		}
		pairs[outer] = inner
	}
}

func (d *cpDec) counters() []Counter {
	n := d.count("NTP series bucket", counterLen)
	p := d.take(counterLen * n)
	if len(p) == 0 {
		return nil
	}
	s := make([]Counter, n)
	for i := range s {
		s[i] = getCounter(p[counterLen*i:])
	}
	return s
}

// WriteCheckpointFile atomically persists cp to path: the snapshot is
// written to a temporary sibling, synced, and renamed into place, so a
// crash mid-write leaves either the previous checkpoint or the new one —
// never a torn file.
func WriteCheckpointFile(path string, cp *Checkpoint) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := EncodeCheckpoint(f, cp); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
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
