package netx

import "slices"

// FlatLPM is the longest-prefix-match table — the only prefix index the
// module compiles: the classifier's origin slab, the bogon list, the RIB's
// origin table and the flow generator all build one. Where a radix trie
// walks one pointer-indexed node per address bit (up to 32 dependent loads)
// and a per-length sorted array binary-searches once per populated length
// (up to 25 searches), FlatLPM spends its memory once at build time to make
// every lookup a bounded number of contiguous-array reads:
//
//	root16[addr>>16]  -> slice of the cut array owned by that /16 chunk
//	starts/cutEntry   -> disjoint address ranges, each mapped to the most
//	                     specific stored prefix covering it (or none)
//	chains/chainEnts  -> per stored prefix, its full ancestor chain
//	                     (shortest first, itself last), precomputed
//
// A lookup is: one root16 load, a short binary search inside the chunk's
// cut span (the cuts of one /16 share a handful of cache lines), and an
// entry-array read. FindChain — the covering-prefix walk the classifier's
// Figure 3 sequence needs — hands out the hit entry's precomputed chain
// instead of a closure call per trie level: the level-compression work
// moves entirely to build time.
//
// All slabs are flat slices of scalars; the structure holds no per-node
// pointers, so the GC never traverses it and lookups never chase one.
// FlatLPM is immutable and safe for concurrent use. The trie and the sorted
// arrays it replaced live on as test-only oracles (trie_oracle_test.go,
// sortedlpm_oracle_test.go): TestFlatLPMProperty and FuzzFlatLPM hold it to
// both.
type FlatLPM struct {
	// starts[i] is the first address of cut i; cutEntry[i] is the entry
	// index of the most specific stored prefix covering that range, or -1.
	// starts is strictly increasing and starts[0] == 0, so the cut covering
	// any address always exists.
	starts   []uint32
	cutEntry []int32

	// root16[k] is the index of the first cut whose start lies at or above
	// chunk k<<16; root16 has 65537 elements so root16[k+1] bounds chunk k.
	// Tables with fewer than root16MinCuts cuts skip it (nil) and binary
	// search the whole cut array instead: the 256KB chunk index would cost
	// more cache than the handful of extra search steps saves, and the
	// per-member naive tables — hundreds of them per pipeline — are nearly
	// all this small.
	root16 []uint32

	// Per-entry slabs, indexed by the entry order (sorted by address, then
	// length). chainOff[e]..chainOff[e+1] bounds entry e's ancestor chain in
	// chains/chainEnts: the values and entry indices of every stored prefix
	// covering e's own, shortest first, ending with e itself.
	// entAddr/entBits record each entry's own prefix, so EntryOf can map a
	// prefix back to its index.
	values    []uint32
	chainOff  []uint32
	chains    []uint32
	chainEnts []uint32
	entAddr   []uint32
	entBits   []uint8

	size int
}

// BuildFlatLPM compiles (prefix, value) pairs into a FlatLPM. Duplicate
// prefixes keep the value that appears last in the input (as repeated
// inserts into a trie would). values == nil stores 1 for every prefix
// (membership-only tables).
func BuildFlatLPM(prefixes []Prefix, values []uint32) *FlatLPM {
	if values != nil && len(prefixes) != len(values) {
		panic("netx: BuildFlatLPM length mismatch")
	}
	f := &FlatLPM{}

	// Mask host bits first: only the first Bits address bits of a prefix
	// mean anything, so an unmasked input behaves as its masked form (the
	// trie oracle's bit walk gives the same answer).
	ps := make([]Prefix, len(prefixes))
	for i, p := range prefixes {
		ps[i] = PrefixFrom(p.Addr, p.Bits)
	}

	// Sort by (address, length) and drop duplicates, last input wins. The
	// sorted order guarantees every prefix's longest proper ancestor in the
	// set precedes it, which is what makes the single nesting-stack pass
	// below sufficient for both chains and cuts.
	order := make([]int32, len(ps))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return ps[a].Compare(ps[b]) })
	ents := order[:0]
	for _, oi := range order {
		p := ps[oi]
		if n := len(ents); n > 0 && ps[ents[n-1]] == p {
			ents[n-1] = oi // duplicate: last insertion wins
			continue
		}
		ents = append(ents, oi)
	}
	n := len(ents)
	f.size = n

	valueOf := func(oi int32) uint32 {
		if values == nil {
			return 1
		}
		return values[oi]
	}

	// Pass 1: ancestor chains. stack holds the entry indices of the
	// prefixes covering the current position, outermost first; an entry's
	// chain is its parent's chain plus itself.
	f.values = make([]uint32, n)
	f.chainOff = make([]uint32, n+1)
	f.entAddr = make([]uint32, n)
	f.entBits = make([]uint8, n)
	depth := make([]uint32, n)
	stack := make([]int32, 0, 33)
	total := uint32(0)
	for e := 0; e < n; e++ {
		p := ps[ents[e]]
		for len(stack) > 0 && !ps[ents[stack[len(stack)-1]]].Contains(p.Addr) {
			stack = stack[:len(stack)-1]
		}
		d := uint32(1)
		if len(stack) > 0 {
			d = depth[stack[len(stack)-1]] + 1
		}
		depth[e] = d
		total += d
		stack = append(stack, int32(e))
		f.values[e] = valueOf(ents[e])
		f.entAddr[e] = uint32(p.Addr)
		f.entBits[e] = p.Bits
	}
	f.chains = make([]uint32, total)
	f.chainEnts = make([]uint32, total)
	off := uint32(0)
	stack = stack[:0]
	for e := 0; e < n; e++ {
		p := ps[ents[e]]
		for len(stack) > 0 && !ps[ents[stack[len(stack)-1]]].Contains(p.Addr) {
			stack = stack[:len(stack)-1]
		}
		f.chainOff[e] = off
		if len(stack) > 0 {
			parent := stack[len(stack)-1]
			po, pd := f.chainOff[parent], depth[parent]
			copy(f.chains[off:off+pd], f.chains[po:po+pd])
			copy(f.chainEnts[off:off+pd], f.chainEnts[po:po+pd])
		}
		last := off + depth[e] - 1
		f.chains[last] = f.values[e]
		f.chainEnts[last] = uint32(e)
		off += depth[e]
		stack = append(stack, int32(e))
	}
	f.chainOff[n] = off

	// Pass 2: flatten the nested prefixes into disjoint address ranges,
	// each labeled with the most specific covering entry. A cut is emitted
	// whenever the covering entry changes: at every prefix start and after
	// every prefix end. Equal-start emissions overwrite (the deeper prefix
	// starts exactly where its ancestor did, or several nested prefixes end
	// at the same address). Each prefix adds at most those two cuts to the
	// first, so 2n+1 slots never grow.
	f.starts = make([]uint32, 1, 2*n+1)
	f.cutEntry = make([]int32, 1, 2*n+1)
	f.cutEntry[0] = -1
	cut := func(start uint32, entry int32) {
		if last := len(f.starts) - 1; f.starts[last] == start {
			f.cutEntry[last] = entry
			return
		}
		f.starts = append(f.starts, start)
		f.cutEntry = append(f.cutEntry, entry)
	}
	stack = stack[:0]
	closeTo := func(first uint32) {
		// Pop every stacked prefix ending before first; each pop returns
		// coverage to the next outer prefix (or none) one address past the
		// popped prefix's last. A prefix ending at 0xFFFFFFFF has no
		// successor address, so nothing reopens after it.
		for len(stack) > 0 {
			top := ps[ents[stack[len(stack)-1]]]
			lastAddr := uint32(top.Last())
			if top.Contains(Addr(first)) {
				break
			}
			stack = stack[:len(stack)-1]
			if lastAddr != ^uint32(0) {
				outer := int32(-1)
				if len(stack) > 0 {
					outer = stack[len(stack)-1]
				}
				cut(lastAddr+1, outer)
			}
		}
	}
	for e := 0; e < n; e++ {
		p := ps[ents[e]]
		closeTo(uint32(p.Addr))
		cut(uint32(p.Addr), int32(e))
		stack = append(stack, int32(e))
	}
	// Drain: nothing after the last prefix, so every stacked prefix ends.
	for len(stack) > 0 {
		top := ps[ents[stack[len(stack)-1]]]
		lastAddr := uint32(top.Last())
		stack = stack[:len(stack)-1]
		if lastAddr != ^uint32(0) {
			outer := int32(-1)
			if len(stack) > 0 {
				outer = stack[len(stack)-1]
			}
			cut(lastAddr+1, outer)
		}
	}

	// root16: one pass assigns every chunk the index of its first cut.
	if len(f.starts) >= root16MinCuts {
		f.root16 = make([]uint32, 1<<16+1)
		c := 0
		for k := 0; k < 1<<16; k++ {
			lo := uint32(k) << 16
			for c < len(f.starts) && f.starts[c] < lo {
				c++
			}
			f.root16[k] = uint32(c)
		}
		f.root16[1<<16] = uint32(len(f.starts))
	}
	return f
}

// root16MinCuts is the cut count below which BuildFlatLPM skips the /16
// chunk index. log2(512) = 9 search steps over one contiguous array beat a
// 256KB side table for every small-to-medium prefix set.
const root16MinCuts = 512

// Len returns the number of distinct stored prefixes.
func (f *FlatLPM) Len() int { return f.size }

// find returns the entry index of the most specific stored prefix covering
// a, or -1. One root16 load (when the table is big enough to carry the
// chunk index) bounds the binary search to the cuts of a's /16 chunk; the
// cut preceding the span (always present: starts[0] == 0) covers addresses
// before the span's first cut.
func (f *FlatLPM) find(a Addr) int32 {
	addr := uint32(a)
	lo, hi := uint32(0), uint32(len(f.starts))
	if f.root16 != nil {
		k := addr >> 16
		lo, hi = f.root16[k], f.root16[k+1]
	}
	for lo < hi {
		mid := (lo + hi) >> 1
		if f.starts[mid] <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return f.cutEntry[lo-1]
}

// Lookup returns the value of the longest stored prefix covering a.
func (f *FlatLPM) Lookup(a Addr) (value uint32, ok bool) {
	e := f.find(a)
	if e < 0 {
		return 0, false
	}
	return f.values[e], true
}

// Contains reports whether any stored prefix covers a.
func (f *FlatLPM) Contains(a Addr) bool { return f.find(a) >= 0 }

// FindChain returns the entry index of the most specific stored prefix
// covering a plus zero-copy views of its full ancestor chain: vals[i] is
// the stored value and ents[i] the entry index of the i-th covering
// prefix, shortest first, ending with the hit entry itself. entry < 0 (and
// nil slices) means nothing covers a. The returned slices alias internal
// slabs and must not be modified; nothing is truncated, so callers that
// need every covering prefix (the classifier's per-member validity scan)
// see the whole chain, however deep, at no copy cost.
func (f *FlatLPM) FindChain(a Addr) (entry int32, vals, ents []uint32) {
	e := f.find(a)
	if e < 0 {
		return -1, nil, nil
	}
	vals, ents = f.EntryChain(e)
	return e, vals, ents
}

// EntryChain returns zero-copy views of entry e's ancestor chain (values
// and entry indices, shortest first, ending with e itself). Callers use it
// to precompute per-entry facts — the classifier derives each entry's
// "covered by a bogon prefix" flag from whether its chain carries the
// bogon sentinel value.
func (f *FlatLPM) EntryChain(e int32) (vals, ents []uint32) {
	lo, hi := f.chainOff[e], f.chainOff[e+1]
	return f.chains[lo:hi:hi], f.chainEnts[lo:hi:hi]
}

// EntryPrefix returns entry e's own prefix (host bits masked): EntriesOf's
// inverse, for callers that keep per-entry side tables and need the
// prefixes back.
func (f *FlatLPM) EntryPrefix(e int32) Prefix {
	return Prefix{Addr: Addr(f.entAddr[e]), Bits: f.entBits[e]}
}

// EntriesOf calls fn with the entry index of each prefix of ps in turn
// (host bits masked, as BuildFlatLPM does) and returns -1, or stops at the
// first prefix that is not stored and returns its position in ps. ps must
// be distinct and in prefix order (Prefix.Compare), the order of the
// entries: each search gallops forward from the previous hit, so a long
// list costs about one step per prefix instead of a binary search. Entry
// indexes are dense in [0, Len()), so callers can build per-entry side
// tables — the classifier marks each member's naively-valid entries in a
// bitset keyed by these indexes.
func (f *FlatLPM) EntriesOf(ps []Prefix, fn func(e int32)) int {
	n := len(f.entAddr)
	lo := 0 // every entry below lo orders before the prefix searched for
	for j, p := range ps {
		p = PrefixFrom(p.Addr, p.Bits)
		addr := uint32(p.Addr)
		below := func(i int) bool {
			return f.entAddr[i] < addr || (f.entAddr[i] == addr && f.entBits[i] < p.Bits)
		}
		// Gallop until hi is past the end or does not order before p, then
		// search [lo, hi) for the first entry that does not.
		hi := lo
		for step := 1; hi < n && below(hi); step *= 2 {
			lo, hi = hi+1, hi+step
		}
		hi = min(hi, n)
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); below(mid) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == n || f.entAddr[lo] != addr || f.entBits[lo] != p.Bits {
			return j
		}
		fn(int32(lo))
		lo++
	}
	return -1
}
