package netx

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sortShape is one way to draw the i-th of n keys.
type sortShape[K uint32 | uint64] struct {
	name string
	key  func(i, n int) K
}

// radixShapes are the inputs RadixSort is checked on at width K: random keys,
// keys that differ in one digit or share one (the skipped passes, leaving the
// result in either buffer), 0 and the maximum, repeats, all-equal keys,
// presorted and reversed input, and keys that differ only in the top digit.
func radixShapes[K uint32 | uint64](rng *rand.Rand) []sortShape[K] {
	top := K(math.MaxUint64 & uint64(^K(0))) // the maximum key
	digits := 4
	if uint64(top) != math.MaxUint32 {
		digits = 8
	}
	random := func() K { return K(rng.Uint64()) }
	ramp := func(i, n int) K { return K(uint64(i) * (uint64(top) / uint64(max(n-1, 1)))) }
	shapes := []sortShape[K]{
		{"random", func(int, int) K { return random() }},
		{"extremes", func(i, _ int) K { return []K{0, top, random()}[i%3] }},
		{"presorted", ramp},
		{"reversed", func(i, n int) K { return top - ramp(i, n) }},
		{"repeats", func(int, int) K { return K(rng.Intn(5)) << (8*digits - 8) }},
		{"all equal", func(int, int) K { return K(0x5a5a5a5a_5a5a5a5a & uint64(top)) }},
		{"AS numbers", func(int, int) K { return K(64500 + rng.Intn(300)) }},
	}
	for d := range digits {
		digit := K(0xff) << (8 * d)
		shapes = append(shapes,
			sortShape[K]{fmt.Sprintf("only digit %d varies", d), func(int, int) K { return K(0xa5c3e10f_96b4d287&uint64(top))&^digit | random()&digit }},
			sortShape[K]{fmt.Sprintf("digit %d shared", d), func(int, int) K { return random()&^digit | K(0x5a5a5a5a_5a5a5a5a&uint64(top))&digit }})
	}
	return shapes
}

func checkRadixSort[K uint32 | uint64](t *testing.T, rng *rand.Rand) {
	for _, n := range []int{0, 1, RadixMin - 1, RadixMin, RadixMin + 1, 4096, 200000} {
		for _, shape := range radixShapes[K](rng) {
			keys := make([]K, n)
			for i := range keys {
				keys[i] = shape.key(i, n)
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			RadixSort(keys, make([]K, 0, n)) // as callers pass it: room, no length
			if !slices.Equal(keys, want) {
				t.Fatalf("%T %s, %d keys: RadixSort differs from slices.Sort", K(0), shape.name, n)
			}
		}
	}
}

// TestRadixSortMatchesSlicesSort checks RadixSort against slices.Sort at both
// key widths, on both sides of RadixMin and up to the checkpoint encoder's
// widest fan-in set (200,000 keys).
func TestRadixSortMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	t.Run("uint32", func(t *testing.T) { checkRadixSort[uint32](t, rng) })
	t.Run("uint64", func(t *testing.T) { checkRadixSort[uint64](t, rng) })
}
