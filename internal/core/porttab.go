package core

import "math/bits"

// This file holds the dense tally behind the Aggregator's port mix and
// packet-size histograms. Both count packets per class over a 16-bit key —
// a port, or an IPv4 total length — so both are built from one page type. A
// Go map keyed per flow would put hashed, cache-missing map operations on
// the Add hot path, and with ~uniform ephemeral ports a port map grows to
// hundreds of thousands of entries. A dense page — block-allocated 16-bit
// cells with an exact carry, plus a presence bitmap — turns each into
// L2-resident indexing. Key presence is tracked separately from the count (a
// zero-packet add still records the key), so the canonical checkpoint
// encoding is byte-identical to a map-backed layout's.
//
// The tables hold exactly what Aggregator.Add records: pages are indexed by
// traffic class, and port pages by TCP or UDP and by direction, with no
// second layout for anything else. The checkpoint decoder refuses a class,
// protocol or direction outside that range, rather than keep a place for it.

// portPage is the dense tally over one 16-bit key space — a (class, proto,
// dir)'s ports, or a class's packet sizes: a 16-bit cell per key plus a
// 65536-bit presence bitmap. The tallies are 1:10K-sampled packet counts,
// almost always tiny, so a cell is 16 bits wide with an exact carry: an add
// that would take a cell past 0xFFFF moves the cell's whole sum into the
// key's uint64 carry, and a key's tally is always cell + carry (mod 2^64, as
// a uint64 counter wraps). Cells live in 256-key blocks of 512 B allocated
// on first touch; a block's carries live in a 256-key uint64 block taken on
// that block's first carry from the table's carry slab. A fresh page is
// ~13KB, and a page whose every block is touched holds 128KB of cells where
// uint64 counters held 512KB, so the cluster paths that decode checkpoints
// into fresh tables (shard assign, coordinator merge) allocate in proportion
// to the keys actually recorded, and a worker's shard aggregates stay
// cache-sized. That also keeps the race detector's shadow-memory cost per
// allocation small — a flat half-MB zeroed array per page made `-race`
// cluster runs pathologically slow.
type portPage struct {
	slab  *carrySlab // the owning table's, which the carry blocks come from
	blk   [1 << 8]*[1 << 8]uint16
	carry [1 << 8]*[1 << 8]uint64 // nil until the block's first carry
	seen  [1 << 10]uint64
	// sum summarizes seen: bit w is set iff seen[w] != 0. Every walk goes
	// through it (eachWord), so folding or clearing a page that holds one
	// drained batch costs about that batch's entries, not all 1024 words.
	sum [1 << 4]uint64
	n   int // set bits in seen
}

// carrySlab hands out the carry blocks of one table's pages, carrySlabLen
// to an allocation: 16 KB. A receiver that folds report after report sees
// its tallies pass 0xFFFF a few blocks at a time, and one slab takes such a
// run without an allocation per block.
type carrySlab struct {
	spare [][1 << 8]uint64 // what the last allocation has not handed out yet
}

const carrySlabLen = 8

// block hands out a zeroed carry block.
func (s *carrySlab) block() *[1 << 8]uint64 {
	if len(s.spare) == 0 {
		s.spare = make([][1 << 8]uint64, carrySlabLen)
	}
	cb := &s.spare[0]
	s.spare = s.spare[1:]
	return cb
}

// cells returns block b's cells, allocating the block on first use.
func (p *portPage) cells(b int) *[1 << 8]uint16 {
	blk := p.blk[b]
	if blk == nil {
		blk = new([1 << 8]uint16)
		p.blk[b] = blk
	}
	return blk
}

// addCell adds s to cell c and returns what the cell cannot hold: 0, or,
// when the sum would pass 0xFFFF, the whole sum, which leaves the cell 0 and
// goes to the key's carry.
func addCell(c *uint16, s uint64) (carry uint64) {
	if s += uint64(*c); s <= 0xffff {
		*c = uint16(s)
		return 0
	}
	*c = 0
	return s
}

// addCarry adds s to key b<<8|i's carry, taking block b's carries from the
// slab on their first use.
func (p *portPage) addCarry(b, i int, s uint64) {
	cb := p.carry[b]
	if cb == nil {
		cb = p.slab.block()
		p.carry[b] = cb
	}
	cb[i] += s
}

// add records key and adds pkts to its tally. The common case — the block
// exists and the sum fits the cell — makes no call; a block's first touch
// and a carry go to addSlow. It is the decoder's fold's add, and the path
// Aggregator.Add takes where addFast declines.
func (p *portPage) add(key uint16, pkts uint64) {
	b, i := int(key>>8), int(key&0xff)
	if blk := p.blk[b]; blk != nil && uint64(blk[i])+pkts <= 0xffff {
		blk[i] += uint16(pkts) // a sum that wraps mod 2^64 fits too, as in addCell
	} else {
		p.addSlow(b, i, pkts)
	}
	w, bit := key>>6, uint64(1)<<(key&63)
	if p.seen[w]&bit == 0 {
		p.seen[w] |= bit
		p.sum[w>>6] |= 1 << (w & 63)
		p.n++
	}
}

func (p *portPage) addSlow(b, i int, pkts uint64) {
	if c := addCell(&p.cells(b)[i], pkts); c != 0 {
		p.addCarry(b, i, c)
	}
}

// addFast adds pkts to key's tally when that needs the key's cell alone, and
// reports whether it did. A non-zero cell proves its key recorded — only
// add, mergeFrom and the decoder's fold make a cell non-zero, and each marks
// the key in seen as it does — so when the block exists, the cell is
// non-zero and the sum fits 16 bits, the add is one cell write and leaves
// seen alone. It makes no call, so it inlines where Aggregator.Add tallies a
// flow; what it declines — a block's first touch, a zero cell (a key's
// first add, or a cell a carry emptied), and a sum past 0xFFFF, one that
// wraps mod 2^64 included — goes to add.
func (p *portPage) addFast(key uint16, pkts uint64) bool {
	if blk := p.blk[key>>8]; blk != nil {
		if c := blk[key&0xff]; c != 0 && pkts <= uint64(0xffff-c) {
			blk[key&0xff] = c + uint16(pkts)
			return true
		}
	}
	return false
}

// eachWord visits the non-empty words of the presence bitmap in ascending
// order: w indexes seen, and word's set bits are keys w<<6 | bit, all inside
// the 256-key block w>>2.
func (p *portPage) eachWord(fn func(w int, word uint64)) {
	for i, s := range p.sum {
		for ; s != 0; s &= s - 1 {
			w := i<<6 | bits.TrailingZeros64(s)
			fn(w, p.seen[w])
		}
	}
}

// each visits every recorded key and its tally in ascending key order.
func (p *portPage) each(fn func(key int, n uint64)) {
	p.eachWord(func(w int, word uint64) {
		blk, cb := p.blk[w>>2], p.carry[w>>2]
		for ; word != 0; word &= word - 1 {
			key := w<<6 | bits.TrailingZeros64(word)
			n := uint64(blk[key&0xff])
			if cb != nil {
				n += cb[key&0xff]
			}
			fn(key, n)
		}
	})
}

// encode writes an entry per recorded key in ascending key order — head|key,
// then the tally — a bitmap word, up to 64 entries, per reservation. A
// word's keys share one 256-key block, so whether their carries exist is
// asked once per word.
func (p *portPage) encode(e *cpEnc, head uint64) {
	p.eachWord(func(w int, word uint64) {
		blk, cb := p.blk[w>>2], p.carry[w>>2]
		q := e.grow(16 * bits.OnesCount64(word))
		for ; word != 0; word &= word - 1 {
			key := w<<6 | bits.TrailingZeros64(word)
			n := uint64(blk[key&0xff])
			if cb != nil {
				n += cb[key&0xff]
			}
			be.PutUint64(q, head|uint64(key))
			be.PutUint64(q[8:], n)
			q = q[16:]
		}
	})
}

// mergeFrom adds every tally of op into p, a word of keys at a time: cells
// into cells, and op's carries, where its block has any, into p's.
func (p *portPage) mergeFrom(op *portPage) {
	op.eachWord(func(w int, word uint64) {
		b := w >> 2
		src, dst := op.blk[b], p.cells(b)
		if fresh := word &^ p.seen[w]; fresh != 0 {
			p.seen[w] |= fresh
			p.sum[w>>6] |= 1 << (w & 63)
			p.n += bits.OnesCount64(fresh)
		}
		if oc := op.carry[b]; oc != nil {
			for x := word; x != 0; x &= x - 1 {
				if i := (w<<6 | bits.TrailingZeros64(x)) & 0xff; oc[i] != 0 {
					p.addCarry(b, i, oc[i])
				}
			}
		}
		for ; word != 0; word &= word - 1 {
			i := (w<<6 | bits.TrailingZeros64(word)) & 0xff
			if c := addCell(&dst[i], uint64(src[i])); c != 0 {
				p.addCarry(b, i, c)
			}
		}
	})
}

// reset zeroes only the touched cells and carries (via the presence bitmap
// and its summary), so a reused private shard pays O(touched), not
// O(65536), per fold. Cell and carry blocks stay allocated for the next lap.
func (p *portPage) reset() {
	p.eachWord(func(w int, word uint64) {
		blk, cb := p.blk[w>>2], p.carry[w>>2]
		for ; word != 0; word &= word - 1 {
			i := (w<<6 | bits.TrailingZeros64(word)) & 0xff
			blk[i] = 0
			if cb != nil {
				cb[i] = 0
			}
		}
		p.seen[w] = 0
	})
	p.sum = [1 << 4]uint64{}
	p.n = 0
}

// portPageKey names a page: (class, proto, dir), the order the checkpoint
// codec writes pages in.
type portPageKey struct {
	class TrafficClass
	proto uint8
	dir   uint8
}

// PortTab is the port-mix tally: one dense page per (class, proto, dir), for
// the two protocols Add records.
type PortTab struct {
	fast [numTrafficClasses][2][2]*portPage
	slab carrySlab
}

// NewPortTab builds an empty table.
func NewPortTab() *PortTab { return &PortTab{} }

// portProtos are the protocols with pages, in page-index (and codec) order.
var portProtos = [2]uint8{6, 17} // ipfix.ProtoTCP, ipfix.ProtoUDP

// protoIdx maps TCP and UDP onto the page array's protocol index; any other
// protocol is -1, which indexes no page.
func protoIdx(proto uint8) int {
	switch proto {
	case portProtos[0]:
		return 0
	case portProtos[1]:
		return 1
	}
	return -1
}

// pair returns the pages of class c and protocol index pi (see protoIdx):
// destination ports, then source ports. Aggregator.Add tallies both for
// every flow, so the two are made together and exist together.
func (t *PortTab) pair(c TrafficClass, pi int) *[2]*portPage {
	pp := &t.fast[c][pi]
	if pp[0] == nil {
		pp[0], pp[1] = &portPage{slab: &t.slab}, &portPage{slab: &t.slab}
	}
	return pp
}

// Len counts recorded keys.
func (t *PortTab) Len() int {
	n := 0
	t.pages(func(_ portPageKey, p *portPage) { n += p.n })
	return n
}

// pages visits every page in (class, proto, dir) order.
func (t *PortTab) pages(fn func(portPageKey, *portPage)) {
	for c := range t.fast {
		for pi, proto := range portProtos {
			for dir, p := range t.fast[c][pi] {
				if p != nil {
					fn(portPageKey{TrafficClass(c), proto, uint8(dir)}, p)
				}
			}
		}
	}
}

// encode writes the port mix sorted by (class, proto, dir, port).
func (t *PortTab) encode(e *cpEnc) {
	e.u32(uint32(t.Len()))
	t.pages(func(k portPageKey, p *portPage) {
		p.encode(e, uint64(uint32(k.class))<<32|uint64(k.proto)<<24|uint64(k.dir)<<16)
	})
}

// fold adds the encoded port mix into t. Entries arrive grouped by page, so
// the page lookup — and the check that its key is one Add records — is paid
// once per run of equal (class, proto, dir).
func (t *PortTab) fold(d *cpDec) {
	var (
		head uint64
		pg   *portPage
	)
	for i, p := 0, d.Take(16*d.count("port-mix entry", 16)); len(p) > 0; i, p = i+1, p[16:] {
		last := head
		if !follows(i, &head, be.Uint64(p)) {
			d.disorder("port-mix key")
			return
		}
		if pg == nil || head>>16 != last>>16 {
			class, proto, dir := uint32(head>>32), uint8(head>>24), uint8(head>>16)
			if !d.primary("port-mix", class) {
				return
			}
			if protoIdx(proto) < 0 || dir > 1 {
				d.refuse("port-mix key of protocol %d, direction %d: only TCP and UDP destination (0) and source (1) ports are recorded", proto, dir)
				return
			}
			pg = t.pair(TrafficClass(class), protoIdx(proto))[dir]
		}
		pg.add(uint16(head), be.Uint64(p[8:]))
	}
}

// Range visits every recorded (key, tally) in (class, proto, dir, port)
// order. Safe to mutate other state during the walk; not safe to Add.
func (t *PortTab) Range(fn func(PortKey, uint64)) {
	t.pages(func(k portPageKey, p *portPage) {
		p.each(func(port int, n uint64) { fn(PortKey{k.class, k.proto, k.dir, uint16(port)}, n) })
	})
}

// MergeFrom folds other into t without adopting its pages.
func (t *PortTab) MergeFrom(other *PortTab) {
	if other == nil {
		return
	}
	other.pages(func(k portPageKey, op *portPage) {
		if op.n > 0 { // a Reset page stays allocated, and has nothing to fold
			t.pair(k.class, protoIdx(k.proto))[k.dir].mergeFrom(op)
		}
	})
}

// Reset zeroes every recorded tally in place, keeping the pages allocated
// for reuse. Cost is proportional to the touched entries.
func (t *PortTab) Reset() {
	t.pages(func(_ portPageKey, p *portPage) { p.reset() })
}

// sizePage is one class's packet-size histogram: a dense page over sizes in
// [0, 65536) — every IPv4 total length — and an exact map, spill, for the
// rest: the negative or huge Bytes/Packets quotients of degenerate records.
// spill is made with the page and never nil. Aggregator.Add splits a size
// between the two itself, so that the dense add inlines there; add is the
// same split for the decoder's fold and MergeFrom's spilled sizes.
type sizePage struct {
	portPage
	spill map[int]uint64
}

func (p *sizePage) add(size int, pkts uint64) {
	if uint(size) < 1<<16 {
		p.portPage.add(uint16(size), pkts)
		return
	}
	p.spill[size] += pkts
}

func (p *sizePage) len() int { return p.n + len(p.spill) }

// walk visits the page in ascending size order: the spilled sizes below the
// dense range (negative quotients), the dense page (through dense), then the
// spilled sizes above it. Spilled sizes never fall inside the dense range,
// so the three runs need no merge.
func (p *sizePage) walk(dense func(), spilled func(size int, pkts uint64)) {
	spill := sortedKeys(nil, p.spill)
	i := 0
	for ; i < len(spill) && spill[i] < 0; i++ {
		spilled(spill[i], p.spill[spill[i]])
	}
	dense()
	for ; i < len(spill); i++ {
		spilled(spill[i], p.spill[spill[i]])
	}
}

// SizeTab is the per-class packet-size histogram, replacing
// map[TrafficClass]map[int]uint64. A class is present exactly when it has at
// least one bin: Reset keeps a page allocated for reuse, emptied.
type SizeTab struct {
	pages [numTrafficClasses]*sizePage
	slab  carrySlab
}

// NewSizeTab builds an empty histogram set.
func NewSizeTab() *SizeTab { return &SizeTab{} }

// page returns class c's page, creating it.
func (t *SizeTab) page(c TrafficClass) *sizePage {
	p := t.pages[c]
	if p == nil {
		p = &sizePage{portPage: portPage{slab: &t.slab}, spill: map[int]uint64{}}
		t.pages[c] = p
	}
	return p
}

// classList appends the present classes to buf in ascending order.
func (t *SizeTab) classList(buf []TrafficClass) []TrafficClass {
	for c, p := range t.pages {
		if p != nil && p.len() > 0 {
			buf = append(buf, TrafficClass(c))
		}
	}
	return buf
}

// RangeClass visits one class's (size, packets) entries in ascending size
// order — the checkpoint codec's order.
func (t *SizeTab) RangeClass(c TrafficClass, fn func(int, uint64)) {
	if p := t.pages[c]; p != nil {
		p.walk(func() { p.each(fn) }, fn)
	}
}

// encode writes the size histograms per class, sizes sorted.
func (t *SizeTab) encode(e *cpEnc) {
	var buf [numTrafficClasses]TrafficClass
	classes := t.classList(buf[:0])
	e.u32(uint32(len(classes)))
	for _, c := range classes {
		p := t.pages[c]
		e.u32pair(uint32(c), uint32(p.len()))
		p.walk(func() { p.encode(e, 0) }, func(size int, pkts uint64) {
			q := e.grow(16)
			be.PutUint64(q, uint64(size))
			be.PutUint64(q[8:], pkts)
		})
	}
}

// fold adds the encoded size histograms into t.
func (t *SizeTab) fold(d *cpDec) {
	var class uint32
	for i := range d.count("size histogram", 8) {
		if !follows(i, &class, d.U32()) {
			d.disorder("size histogram class")
			return
		}
		n := d.count("size bin", 16)
		if !d.primary("size histogram", class) || !d.some("size histogram", class, n) {
			return
		}
		pg := t.page(TrafficClass(class))
		var size int
		for j, p := 0, d.Take(16*n); len(p) > 0; j, p = j+1, p[16:] {
			if !follows(j, &size, int(be.Uint64(p))) {
				d.disorder("size bin")
				return
			}
			pg.add(size, be.Uint64(p[8:]))
		}
	}
}

// MergeFrom folds other into t without adopting its pages.
func (t *SizeTab) MergeFrom(other *SizeTab) {
	if other == nil {
		return
	}
	for c, op := range other.pages {
		if op == nil || op.len() == 0 {
			continue // a Reset page stays allocated, and has nothing to fold
		}
		p := t.page(TrafficClass(c))
		p.mergeFrom(&op.portPage)
		// Addition commutes, so unlike the codec this fold need not be
		// ordered — and must not pay walk's sorted copy of the spilled sizes:
		// a fold allocates nothing. The spill is empty in the common trace,
		// and ranging over an empty map still costs an iterator's set-up.
		if len(op.spill) > 0 {
			for size, pkts := range op.spill {
				p.add(size, pkts)
			}
		}
	}
}

// Reset zeroes every recorded tally in place, which leaves every class
// absent, keeping pages allocated for reuse.
func (t *SizeTab) Reset() {
	for _, p := range t.pages {
		if p != nil {
			p.reset()
			clear(p.spill)
		}
	}
}
