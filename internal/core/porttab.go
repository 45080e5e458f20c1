package core

import (
	"cmp"
	"math/bits"
	"slices"
)

// This file holds the dense tally containers behind the Aggregator's port
// mix and packet-size histograms. Both used to be Go maps keyed per flow on
// the Add hot path; with ~uniform ephemeral ports the port map grows to
// hundreds of thousands of entries and every flow pays two hashed,
// cache-missing map operations. A dense page — block-allocated counter
// arrays plus a presence bitmap — turns each into L2-resident indexing while
// preserving the map's exact semantics: key presence is tracked separately
// from the count (a zero-packet add still records the key, as a map `+=`
// would), so the canonical checkpoint encoding is byte-identical to the
// map-backed layout's.

// portPage is the dense tally for one (class, proto, dir): 65536 counters
// plus a 65536-bit presence bitmap. The counters live in 256-port blocks
// allocated on first touch rather than one flat [1<<16]uint64: a fresh page
// is ~10KB instead of 512KB, so the cluster paths that decode checkpoints
// into fresh tables (shard assign, coordinator merge) allocate in
// proportion to the ports actually recorded. That also keeps the race
// detector's shadow-memory cost per allocation small — a flat half-MB
// zeroed array per page made `-race` cluster runs pathologically slow.
type portPage struct {
	blk  [1 << 8]*[1 << 8]uint64
	seen [1 << 10]uint64
	// sum summarizes seen: bit w is set iff seen[w] != 0. Every walk goes
	// through it (eachWord), so folding or clearing a page that holds one
	// drained batch costs about that batch's entries, not all 1024 words.
	sum [1 << 4]uint64
	n   int // set bits in seen
}

// slot returns the counter cell for port, allocating its block on first use.
func (p *portPage) slot(port uint16) *uint64 {
	blk := p.blk[port>>8]
	if blk == nil {
		blk = new([1 << 8]uint64)
		p.blk[port>>8] = blk
	}
	return &blk[port&0xff]
}

// at reads the counter for port; unrecorded ports read zero.
func (p *portPage) at(port uint16) uint64 {
	if blk := p.blk[port>>8]; blk != nil {
		return blk[port&0xff]
	}
	return 0
}

func (p *portPage) add(port uint16, pkts uint64) {
	*p.slot(port) += pkts
	w, b := uint32(port)>>6, uint64(1)<<(port&63)
	if p.seen[w]&b == 0 {
		p.seen[w] |= b
		p.sum[w>>6] |= 1 << (w & 63)
		p.n++
	}
}

// set stores an exact tally (map-assign semantics; checkpoint decode).
func (p *portPage) set(port uint16, v uint64) {
	*p.slot(port) = v
	w, b := uint32(port)>>6, uint64(1)<<(port&63)
	if p.seen[w]&b == 0 {
		p.seen[w] |= b
		p.sum[w>>6] |= 1 << (w & 63)
		p.n++
	}
}

func (p *portPage) has(port uint16) bool {
	return p.seen[port>>6]&(1<<(port&63)) != 0
}

// eachWord visits the non-empty words of the presence bitmap in ascending
// order: w indexes seen, and word's set bits are ports w<<6 | bit, all inside
// the 256-port block w>>2.
func (p *portPage) eachWord(fn func(w int, word uint64)) {
	for i, s := range p.sum {
		for ; s != 0; s &= s - 1 {
			w := i<<6 | bits.TrailingZeros64(s)
			fn(w, p.seen[w])
		}
	}
}

// mergeFrom adds every tally of op into p, a word of ports at a time.
func (p *portPage) mergeFrom(op *portPage) {
	op.eachWord(func(w int, word uint64) {
		src, dst := op.blk[w>>2], p.blk[w>>2]
		if dst == nil {
			dst = new([1 << 8]uint64)
			p.blk[w>>2] = dst
		}
		if fresh := word &^ p.seen[w]; fresh != 0 {
			p.seen[w] |= fresh
			p.sum[w>>6] |= 1 << (w & 63)
			p.n += bits.OnesCount64(fresh)
		}
		for ; word != 0; word &= word - 1 {
			i := (w<<6 | bits.TrailingZeros64(word)) & 0xff
			dst[i] += src[i]
		}
	})
}

// reset zeroes only the touched counters (via the presence bitmap and its
// summary), so a reused private shard pays O(touched), not O(65536), per
// fold. Blocks stay allocated for the next lap.
func (p *portPage) reset() {
	p.eachWord(func(w int, word uint64) {
		blk := p.blk[w>>2]
		for ; word != 0; word &= word - 1 {
			blk[(w<<6|bits.TrailingZeros64(word))&0xff] = 0
		}
		p.seen[w] = 0
	})
	p.sum = [1 << 4]uint64{}
	p.n = 0
}

// portPageKey orders pages the way the checkpoint codec sorts PortKeys:
// (class, proto, dir) ascending.
type portPageKey struct {
	class TrafficClass
	proto uint8
	dir   uint8
}

// PortTab is the port-mix tally: one dense page per (class, proto, dir).
// The TCP/UDP pages — the only protocols Add records — sit in a
// direct-indexed array; pages for any other protocol (reachable only by
// decoding a checkpoint that carries them) live in a spill map.
type PortTab struct {
	fast  [numTrafficClasses][2][2]*portPage
	spill map[portPageKey]*portPage
}

// NewPortTab builds an empty table.
func NewPortTab() *PortTab { return &PortTab{} }

// protoIdx maps the two hot protocols onto the fast array; -1 spills.
func protoIdx(proto uint8) int {
	switch proto {
	case 6: // ipfix.ProtoTCP
		return 0
	case 17: // ipfix.ProtoUDP
		return 1
	}
	return -1
}

// page returns the page for (class, proto, dir), creating it if asked.
func (t *PortTab) page(c TrafficClass, proto, dir uint8, create bool) *portPage {
	if pi := protoIdx(proto); pi >= 0 && c >= 0 && c < numTrafficClasses {
		p := t.fast[c][pi][dir&1]
		if p == nil && create {
			p = &portPage{}
			t.fast[c][pi][dir&1] = p
		}
		return p
	}
	k := portPageKey{c, proto, dir}
	p := t.spill[k]
	if p == nil && create {
		if t.spill == nil {
			t.spill = make(map[portPageKey]*portPage)
		}
		p = &portPage{}
		t.spill[k] = p
	}
	return p
}

// Add accumulates pkts for one key. This is the hot path: two array
// indexes and a bitmap update, no hashing.
func (t *PortTab) Add(c TrafficClass, proto, dir uint8, port uint16, pkts uint64) {
	t.page(c, proto, dir, true).add(port, pkts)
}

// Get returns the tally for k and whether the key was ever recorded —
// the comma-ok contract of the map this table replaced.
func (t *PortTab) Get(k PortKey) (uint64, bool) {
	p := t.page(k.Class, k.Proto, k.Dir, false)
	if p == nil || !p.has(k.Port) {
		return 0, false
	}
	return p.at(k.Port), true
}

// Len counts recorded keys.
func (t *PortTab) Len() int {
	n := 0
	t.pages(func(_ portPageKey, p *portPage) { n += p.n })
	return n
}

// maxFastPages is how many pages the direct-indexed array can hold.
const maxFastPages = int(numTrafficClasses) * 2 * 2

// pageKeys appends every page's key to buf in (class, proto, dir) order —
// the checkpoint codec's key order. The fast array is walked in that order
// already; only a table that carries spilled protocols has to sort.
func (t *PortTab) pageKeys(buf []portPageKey) []portPageKey {
	for c := TrafficClass(0); c < numTrafficClasses; c++ {
		for pi, proto := range [2]uint8{6, 17} {
			for dir := uint8(0); dir < 2; dir++ {
				if t.fast[c][pi][dir] != nil {
					buf = append(buf, portPageKey{c, proto, dir})
				}
			}
		}
	}
	if len(t.spill) == 0 {
		return buf
	}
	for k := range t.spill {
		buf = append(buf, k)
	}
	slices.SortFunc(buf, func(a, b portPageKey) int {
		return cmp.Or(cmp.Compare(a.class, b.class), cmp.Compare(a.proto, b.proto), cmp.Compare(a.dir, b.dir))
	})
	return buf
}

// pages visits every page in (class, proto, dir) order.
func (t *PortTab) pages(fn func(portPageKey, *portPage)) {
	var buf [maxFastPages]portPageKey
	for _, k := range t.pageKeys(buf[:0]) {
		fn(k, t.page(k.class, k.proto, k.dir, false))
	}
}

// encode writes the port mix sorted by (class, proto, dir, port), a bitmap
// word — up to 64 entries — per reservation.
func (t *PortTab) encode(e *cpEnc) {
	e.u32(uint32(t.Len()))
	t.pages(func(k portPageKey, p *portPage) {
		head := uint64(uint32(k.class))<<32 | uint64(k.proto)<<24 | uint64(k.dir)<<16
		p.eachWord(func(w int, word uint64) {
			blk := p.blk[w>>2] // a word's 64 ports share one 256-port block
			q := e.grow(16 * bits.OnesCount64(word))
			for ; word != 0; word &= word - 1 {
				port := w<<6 | bits.TrailingZeros64(word)
				be.PutUint64(q, head|uint64(port))
				be.PutUint64(q[8:], blk[port&0xff])
				q = q[16:]
			}
		})
	})
}

// decode reads the port mix. Entries arrive grouped by page, so the page
// lookup is paid once per run of equal (class, proto, dir).
func (t *PortTab) decode(d *cpDec) {
	var (
		last portPageKey
		pg   *portPage
	)
	for p := d.take(16 * d.count("port-mix entry", 16)); len(p) > 0; p = p[16:] {
		head := be.Uint64(p)
		k := portPageKey{TrafficClass(head >> 32), uint8(head >> 24), uint8(head >> 16)}
		if pg == nil || k != last {
			pg, last = t.page(k.class, k.proto, k.dir, true), k
		}
		pg.set(uint16(head), be.Uint64(p[8:]))
	}
}

// Range visits every recorded (key, tally) in (class, proto, dir, port)
// order. Safe to mutate other state during the walk; not safe to Add.
func (t *PortTab) Range(fn func(PortKey, uint64)) {
	t.pages(func(k portPageKey, p *portPage) {
		p.eachWord(func(w int, word uint64) {
			for ; word != 0; word &= word - 1 {
				port := uint16(w<<6 | bits.TrailingZeros64(word))
				fn(PortKey{k.class, k.proto, k.dir, port}, p.at(port))
			}
		})
	})
}

// MergeFrom folds other into t without adopting its pages.
func (t *PortTab) MergeFrom(other *PortTab) {
	if other == nil {
		return
	}
	other.pages(func(k portPageKey, op *portPage) {
		if op.n > 0 { // a Reset page stays allocated, and has nothing to fold
			t.page(k.class, k.proto, k.dir, true).mergeFrom(op)
		}
	})
}

// Reset zeroes every recorded tally in place, keeping the pages allocated
// for reuse. Cost is proportional to the touched entries.
func (t *PortTab) Reset() {
	t.pages(func(_ portPageKey, p *portPage) { p.reset() })
}

// sizePage is the dense packet-size histogram for one class: sizes below
// sizeDense live in the flat array, anything else (jumbo or degenerate
// Bytes/Packets quotients) spills to an exact map.
const sizeDense = 1 << 12

type sizePage struct {
	// present mirrors map key-presence: the class existed in the old
	// map[TrafficClass] iff present. Reset keeps the page allocated for
	// reuse but marks it absent, exactly like clear() on the map did.
	present bool
	cnt     [sizeDense]uint64
	seen    [sizeDense / 64]uint64
	sum     uint64 // bit w set iff seen[w] != 0, as in portPage
	n       int
	spill   map[int]uint64
}

func (p *sizePage) add(size int, pkts uint64) {
	if size >= 0 && size < sizeDense {
		p.cnt[size] += pkts
		w, b := uint32(size)>>6, uint64(1)<<(size&63)
		if p.seen[w]&b == 0 {
			p.seen[w] |= b
			p.sum |= 1 << w
			p.n++
		}
		return
	}
	if p.spill == nil {
		p.spill = make(map[int]uint64)
	}
	p.spill[size] += pkts
}

// set stores an exact tally (map-assign semantics; checkpoint decode).
func (p *sizePage) set(size int, v uint64) {
	if size >= 0 && size < sizeDense {
		p.cnt[size] = v
		w, b := uint32(size)>>6, uint64(1)<<(size&63)
		if p.seen[w]&b == 0 {
			p.seen[w] |= b
			p.sum |= 1 << w
			p.n++
		}
		return
	}
	if p.spill == nil {
		p.spill = make(map[int]uint64)
	}
	p.spill[size] = v
}

func (p *sizePage) len() int { return p.n + len(p.spill) }

// SizeTab is the per-class packet-size histogram, replacing
// map[TrafficClass]map[int]uint64.
type SizeTab struct {
	pages [numTrafficClasses]*sizePage
	// spill holds classes outside the enum range (reachable only from a
	// hand-crafted checkpoint; Add never produces them).
	spill map[TrafficClass]*sizePage
}

// NewSizeTab builds an empty histogram set.
func NewSizeTab() *SizeTab { return &SizeTab{} }

func (t *SizeTab) page(c TrafficClass, create bool) *sizePage {
	var p *sizePage
	if c >= 0 && c < numTrafficClasses {
		p = t.pages[c]
		if p == nil && create {
			p = &sizePage{}
			t.pages[c] = p
		}
	} else {
		p = t.spill[c]
		if p == nil && create {
			if t.spill == nil {
				t.spill = make(map[TrafficClass]*sizePage)
			}
			p = &sizePage{}
			t.spill[c] = p
		}
	}
	if p != nil {
		if create {
			p.present = true
		} else if !p.present {
			return nil
		}
	}
	return p
}

// Add accumulates pkts into class c's histogram at size.
func (t *SizeTab) Add(c TrafficClass, size int, pkts uint64) {
	t.page(c, true).add(size, pkts)
}

// classList appends the recorded classes to buf in ascending order.
func (t *SizeTab) classList(buf []TrafficClass) []TrafficClass {
	for c := TrafficClass(0); c < numTrafficClasses; c++ {
		if p := t.pages[c]; p != nil && p.present {
			buf = append(buf, c)
		}
	}
	if len(t.spill) == 0 {
		return buf
	}
	for c, p := range t.spill {
		if p.present {
			buf = append(buf, c)
		}
	}
	slices.Sort(buf)
	return buf
}

// RangeClass visits one class's (size, packets) entries in ascending size
// order — the checkpoint codec's order.
func (t *SizeTab) RangeClass(c TrafficClass, fn func(int, uint64)) {
	if p := t.page(c, false); p != nil {
		p.walk(func(w int, word uint64) {
			for ; word != 0; word &= word - 1 {
				size := w<<6 | bits.TrailingZeros64(word)
				fn(size, p.cnt[size])
			}
		}, fn)
	}
}

// walk visits the page in ascending size order: the spilled sizes below the
// dense range (negative quotients), the non-empty words of the dense bitmap,
// then the spilled sizes above it. Spilled sizes never fall inside the dense
// range, so the three runs need no merge.
func (p *sizePage) walk(dense func(w int, word uint64), spilled func(size int, pkts uint64)) {
	spill := sortedKeys(nil, p.spill)
	i := 0
	for ; i < len(spill) && spill[i] < 0; i++ {
		spilled(spill[i], p.spill[spill[i]])
	}
	for s := p.sum; s != 0; s &= s - 1 {
		w := bits.TrailingZeros64(s)
		dense(w, p.seen[w])
	}
	for ; i < len(spill); i++ {
		spilled(spill[i], p.spill[spill[i]])
	}
}

// encode writes the size histograms per class, sizes sorted, a bitmap word —
// up to 64 bins — per reservation.
func (t *SizeTab) encode(e *cpEnc) {
	var buf [numTrafficClasses]TrafficClass
	classes := t.classList(buf[:0])
	e.u32(uint32(len(classes)))
	for _, c := range classes {
		p := t.page(c, false)
		e.u32pair(uint32(c), uint32(p.len()))
		p.walk(func(w int, word uint64) {
			q := e.grow(16 * bits.OnesCount64(word))
			for ; word != 0; word &= word - 1 {
				size := w<<6 | bits.TrailingZeros64(word)
				be.PutUint64(q, uint64(size))
				be.PutUint64(q[8:], p.cnt[size])
				q = q[16:]
			}
		}, func(size int, pkts uint64) {
			q := e.grow(16)
			be.PutUint64(q, uint64(size))
			be.PutUint64(q[8:], pkts)
		})
	}
}

// decode reads the size histograms. A class may carry zero bins, which the
// map layout this table replaced kept as a present empty map: creating the
// page marks it present either way.
func (t *SizeTab) decode(d *cpDec) {
	for i := d.count("size histogram", 8); i > 0 && d.err == nil; i-- {
		pg := t.page(TrafficClass(d.u32()), true)
		for p := d.take(16 * d.count("size bin", 16)); len(p) > 0; p = p[16:] {
			pg.set(int(be.Uint64(p)), be.Uint64(p[8:]))
		}
	}
}

func (p *sizePage) has(size int) bool {
	return size >= 0 && size < sizeDense && p.seen[size>>6]&(1<<(uint(size)&63)) != 0
}

// Get returns class c's tally at size with map comma-ok semantics.
func (t *SizeTab) Get(c TrafficClass, size int) (uint64, bool) {
	p := t.page(c, false)
	if p == nil {
		return 0, false
	}
	if p.has(size) {
		return p.cnt[size], true
	}
	v, ok := p.spill[size]
	return v, ok
}

// MergeFrom folds other into t without adopting its pages.
func (t *SizeTab) MergeFrom(other *SizeTab) {
	if other == nil {
		return
	}
	var buf [numTrafficClasses]TrafficClass
	for _, c := range other.classList(buf[:0]) {
		op, p := other.page(c, false), t.page(c, true)
		// Addition commutes, so unlike the codec this walk need not be
		// ordered — and must not pay walk's sorted copy of the spilled sizes:
		// a fold allocates nothing.
		for s := op.sum; s != 0; s &= s - 1 {
			w := bits.TrailingZeros64(s)
			for word := op.seen[w]; word != 0; word &= word - 1 {
				size := w<<6 | bits.TrailingZeros64(word)
				p.add(size, op.cnt[size])
			}
		}
		for size, pkts := range op.spill {
			p.add(size, pkts)
		}
	}
}

// Reset zeroes every recorded tally in place and marks every class absent,
// keeping pages allocated for reuse.
func (t *SizeTab) Reset() {
	var buf [numTrafficClasses]TrafficClass
	for _, c := range t.classList(buf[:0]) {
		p := t.page(c, false)
		for s := p.sum; s != 0; s &= s - 1 {
			w := bits.TrailingZeros64(s)
			for word := p.seen[w]; word != 0; word &= word - 1 {
				p.cnt[w<<6|bits.TrailingZeros64(word)] = 0
			}
			p.seen[w] = 0
		}
		p.sum, p.n = 0, 0
		clear(p.spill)
		p.present = false
	}
}
