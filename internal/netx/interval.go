package netx

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Interval is an inclusive IPv4 address range [Lo, Hi].
type Interval struct {
	Lo, Hi Addr
}

// IntervalOf returns the interval covered by a prefix.
func IntervalOf(p Prefix) Interval {
	return Interval{Lo: p.First(), Hi: p.Last()}
}

// Len returns the number of addresses in the interval.
func (iv Interval) Len() uint64 { return uint64(iv.Hi) - uint64(iv.Lo) + 1 }

func (iv Interval) String() string { return fmt.Sprintf("[%s, %s]", iv.Lo, iv.Hi) }

// IntervalSet is an immutable set of IPv4 addresses held as sorted,
// non-overlapping, non-adjacent inclusive intervals. The zero value is the
// empty set. Build one with NewIntervalSet or via set algebra.
type IntervalSet struct {
	ivs []Interval
}

// NewIntervalSet normalizes arbitrary intervals (overlapping, adjacent,
// unordered) into a canonical set.
func NewIntervalSet(ivs ...Interval) IntervalSet {
	if len(ivs) == 0 {
		return IntervalSet{}
	}
	sorted := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.Lo > iv.Hi {
			iv.Lo, iv.Hi = iv.Hi, iv.Lo
		}
		sorted = append(sorted, iv)
	}
	return normalize(sorted)
}

// normalize sorts ivs (each Lo ≤ Hi) in place and merges it into a
// canonical set, which keeps ivs' backing array.
func normalize(ivs []Interval) IntervalSet {
	slices.SortFunc(ivs, func(a, b Interval) int { return cmp.Compare(a.Lo, b.Lo) })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		// Merge overlapping or adjacent intervals; guard Hi+1 overflow at
		// 255.255.255.255.
		if iv.Lo <= last.Hi || (last.Hi != ^Addr(0) && iv.Lo == last.Hi+1) {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return IntervalSet{ivs: out}
}

// IntervalSetOfPrefixes builds a set from prefixes.
func IntervalSetOfPrefixes(ps ...Prefix) IntervalSet {
	if len(ps) == 0 {
		return IntervalSet{}
	}
	ivs := make([]Interval, len(ps))
	for i, p := range ps {
		ivs[i] = IntervalOf(p)
	}
	return normalize(ivs)
}

// IsEmpty reports whether the set contains no addresses.
func (s IntervalSet) IsEmpty() bool { return len(s.ivs) == 0 }

// Intervals returns the canonical intervals. The returned slice must not be
// modified.
func (s IntervalSet) Intervals() []Interval { return s.ivs }

// NumAddrs returns the number of addresses in the set.
func (s IntervalSet) NumAddrs() uint64 {
	var n uint64
	for _, iv := range s.ivs {
		n += iv.Len()
	}
	return n
}

// Slash24Equivalents returns the set size in /24 equivalents, rounded to the
// nearest integer, matching how the paper reports address-space sizes.
func (s IntervalSet) Slash24Equivalents() uint64 {
	return (s.NumAddrs() + 128) / 256
}

// Contains reports whether the set covers a, via binary search.
func (s IntervalSet) Contains(a Addr) bool {
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi >= a })
	return i < len(s.ivs) && s.ivs[i].Lo <= a
}

// Subtract returns the addresses in s but not in t.
func (s IntervalSet) Subtract(t IntervalSet) IntervalSet {
	if s.IsEmpty() || t.IsEmpty() {
		return s
	}
	var out []Interval
	j := 0
	for _, iv := range s.ivs {
		lo := iv.Lo
		consumed := false
		for j < len(t.ivs) && t.ivs[j].Hi < lo {
			j++
		}
		for k := j; k < len(t.ivs) && t.ivs[k].Lo <= iv.Hi; k++ {
			cut := t.ivs[k]
			if cut.Lo > lo {
				out = append(out, Interval{lo, cut.Lo - 1})
			}
			if cut.Hi >= iv.Hi {
				consumed = true
				break
			}
			lo = cut.Hi + 1
		}
		if !consumed && lo <= iv.Hi {
			out = append(out, Interval{lo, iv.Hi})
		}
	}
	return IntervalSet{ivs: out}
}

// ContainsSet reports whether every address of t is also in s.
func (s IntervalSet) ContainsSet(t IntervalSet) bool {
	return t.Subtract(s).IsEmpty()
}

func (s IntervalSet) String() string {
	if s.IsEmpty() {
		return "{}"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
