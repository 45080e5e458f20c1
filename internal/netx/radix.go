package netx

import (
	"math"
	"slices"
)

// RadixMin is the length from which RadixSort radix-sorts; below it, pdqsort's
// smaller fixed cost wins. It was picked by sweeping 32, 64, 128 and 256 over
// the checkpoint encoder's uint32 keys (EXPERIMENTS.md, "radix-sorted encode").
const RadixMin = 128

// RadixSort sorts keys ascending. From RadixMin keys on it is an LSD radix
// sort: one pass counts every 8-bit digit of the key width, then every digit
// the keys do not all share is a stable counting pass from keys to tmp or
// back, so a narrow field packed into a wide key costs no pass for the bits it
// leaves zero. The result is in keys either way. tmp must have the capacity
// for len(keys) keys.
func RadixSort[K uint32 | uint64](keys, tmp []K) {
	n := len(keys)
	if n < RadixMin {
		slices.Sort(keys)
		return
	}
	// int32 counts keep the table 8 KB, which every call zeroes: a uint32
	// sort of a few hundred keys pays for the table as much as for the keys.
	var count [8][256]int32
	digits := 8
	if uint64(^K(0)) == math.MaxUint32 {
		digits = 4
		for _, k := range keys {
			count[0][k&0xff]++
			count[1][k>>8&0xff]++
			count[2][k>>16&0xff]++
			count[3][k>>24&0xff]++
		}
	} else {
		for _, k := range keys {
			x := uint64(k)
			count[0][x&0xff]++
			count[1][x>>8&0xff]++
			count[2][x>>16&0xff]++
			count[3][x>>24&0xff]++
			count[4][x>>32&0xff]++
			count[5][x>>40&0xff]++
			count[6][x>>48&0xff]++
			count[7][x>>56]++
		}
	}
	src, dst := keys, tmp[:n]
	for d := range digits {
		c, shift := &count[d], 8*d
		if int(c[src[0]>>shift&0xff]) == n {
			continue // every key has this digit: the pass would be a copy
		}
		at := int32(0)
		for b, m := range c {
			c[b], at = at, at+m
		}
		for _, k := range src {
			b := k >> shift & 0xff
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}
