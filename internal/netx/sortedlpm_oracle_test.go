package netx

import "sort"

// SortedLPM is an immutable longest-prefix-match table implemented as one
// sorted array per prefix length, probed longest-first with binary search.
// It is the classic alternative to a radix trie: denser memory, no pointer
// chasing, but up to 25 binary searches per miss. It is test-only: the
// second, structurally unrelated reference in TestFlatLPMProperty's
// three-way comparison.
type SortedLPM struct {
	// byLen[bits] holds the network addresses of all /bits prefixes,
	// sorted; values[bits] holds the corresponding payloads.
	byLen  [33][]uint32
	values [33][]uint32
	// lens lists the populated prefix lengths, longest first.
	lens []uint8
	size int
}

// NewSortedLPM builds the table from (prefix, value) pairs. Later
// duplicates of the same prefix override earlier ones, matching
// Trie.Insert semantics.
func NewSortedLPM(prefixes []Prefix, values []uint32) *SortedLPM {
	if len(prefixes) != len(values) {
		panic("netx: NewSortedLPM length mismatch")
	}
	type entry struct {
		addr  uint32
		value uint32
		order int
	}
	byLen := make(map[uint8][]entry)
	for i, p := range prefixes {
		byLen[p.Bits] = append(byLen[p.Bits], entry{uint32(p.Addr), values[i], i})
	}
	s := &SortedLPM{}
	for bits := 32; bits >= 0; bits-- {
		es := byLen[uint8(bits)]
		if len(es) == 0 {
			continue
		}
		// Sort by address; for duplicates the last insertion wins.
		sort.Slice(es, func(a, b int) bool {
			if es[a].addr != es[b].addr {
				return es[a].addr < es[b].addr
			}
			return es[a].order < es[b].order
		})
		addrs := make([]uint32, 0, len(es))
		vals := make([]uint32, 0, len(es))
		for _, e := range es {
			if n := len(addrs); n > 0 && addrs[n-1] == e.addr {
				vals[n-1] = e.value // duplicate: override
				continue
			}
			addrs = append(addrs, e.addr)
			vals = append(vals, e.value)
		}
		s.byLen[bits] = addrs
		s.values[bits] = vals
		s.lens = append(s.lens, uint8(bits))
		s.size += len(addrs)
	}
	return s
}

// Len returns the number of distinct stored prefixes.
func (s *SortedLPM) Len() int { return s.size }

// Lookup returns the value of the longest stored prefix covering a.
func (s *SortedLPM) Lookup(a Addr) (value uint32, ok bool) {
	addr := uint32(a)
	for _, bits := range s.lens {
		net := addr & maskOf(bits)
		table := s.byLen[bits]
		// Manual lower-bound search: no closure call per probe.
		lo, hi := 0, len(table)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if table[mid] < net {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(table) && table[lo] == net {
			return s.values[bits][lo], true
		}
	}
	return 0, false
}

// Contains reports whether any stored prefix covers a.
func (s *SortedLPM) Contains(a Addr) bool {
	_, ok := s.Lookup(a)
	return ok
}
