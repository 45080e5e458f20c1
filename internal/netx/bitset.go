package netx

import "math/bits"

// Bitset is a dense fixed-capacity bitset used for reachability computations
// over AS graphs (node indices are small dense integers).
type Bitset struct {
	words []uint64
}

// NewBitset returns a bitset able to hold n bits, all clear.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64)}
}

// NewBitsets returns count bitsets able to hold n bits each, all clear,
// carved from one backing array: two allocations however many there are.
func NewBitsets(count, n int) []Bitset {
	w := (n + 63) / 64
	words := make([]uint64, count*w)
	out := make([]Bitset, count)
	for i := range out {
		out[i].words = words[i*w : (i+1)*w : (i+1)*w]
	}
	return out
}

// Set sets bit i.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b *Bitset) Clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// Test reports whether bit i is set.
func (b *Bitset) Test(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ForEach calls fn for every set bit index in ascending order.
func (b *Bitset) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(wi*64 + tz)
			w &= w - 1
		}
	}
}
