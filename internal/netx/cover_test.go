package netx

import (
	"math/rand"
	"testing"
)

func TestPrefixesExactBlocks(t *testing.T) {
	s := IntervalSetOfPrefixes(MustParsePrefix("10.0.0.0/8"), MustParsePrefix("192.0.2.0/24"))
	ps := s.Prefixes()
	if len(ps) != 2 {
		t.Fatalf("cover = %v", ps)
	}
	if !sameSet(IntervalSetOfPrefixes(ps...), s) {
		t.Fatal("cover does not reproduce the set")
	}
}

func TestPrefixesSplitsUnaligned(t *testing.T) {
	// [10.0.0.1, 10.0.0.6] needs /32 /31 /31 /32 = {1, 2-3, 4-5, 6}.
	s := NewIntervalSet(Interval{MustParseAddr("10.0.0.1"), MustParseAddr("10.0.0.6")})
	ps := s.Prefixes()
	if len(ps) != 4 {
		t.Fatalf("cover = %v", ps)
	}
	if !sameSet(IntervalSetOfPrefixes(ps...), s) {
		t.Fatal("cover mismatch")
	}
}

func TestPrefixesWholeSpace(t *testing.T) {
	s := IntervalSetOfPrefixes(PrefixFrom(0, 0))
	ps := s.Prefixes()
	if len(ps) != 1 || ps[0] != PrefixFrom(0, 0) {
		t.Fatalf("cover of everything = %v", ps)
	}
}

func TestPrefixesTopOfSpace(t *testing.T) {
	// Regression: covering up to 255.255.255.255 must not loop or wrap.
	s := NewIntervalSet(Interval{MustParseAddr("255.255.255.250"), MustParseAddr("255.255.255.255")})
	ps := s.Prefixes()
	if !sameSet(IntervalSetOfPrefixes(ps...), s) {
		t.Fatalf("top-of-space cover = %v", ps)
	}
}

func TestPrefixesEmpty(t *testing.T) {
	var s IntervalSet
	if got := s.Prefixes(); len(got) != 0 {
		t.Fatalf("empty cover = %v", got)
	}
}

// TestPrefixesRoundTripProperty: for random sets, the cover reproduces the
// set exactly, every emitted prefix is valid, and the cover is no larger
// than the trivial per-/32 expansion bound (log-bounded per interval).
func TestPrefixesRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 300; iter++ {
		s := randSet(rng)
		ps := s.Prefixes()
		for _, p := range ps {
			if p.Bits > 32 || p != PrefixFrom(p.Addr, p.Bits) {
				t.Fatalf("invalid prefix %v in cover", p)
			}
		}
		if !sameSet(IntervalSetOfPrefixes(ps...), s) {
			t.Fatalf("cover mismatch for %v", s)
		}
		// Minimality bound: an inclusive interval needs at most
		// 2*32 prefixes.
		if len(ps) > 64*len(s.Intervals()) {
			t.Fatalf("cover of %d intervals uses %d prefixes", len(s.Intervals()), len(ps))
		}
	}
}

func TestPrefixesMergesAdjacentBlocks(t *testing.T) {
	// Two adjacent /25s normalize into one interval; the cover emits the
	// single /24, not the two halves.
	s := IntervalSetOfPrefixes(
		MustParsePrefix("192.0.2.0/25"),
		MustParsePrefix("192.0.2.128/25"),
	)
	ps := s.Prefixes()
	if len(ps) != 1 || ps[0] != MustParsePrefix("192.0.2.0/24") {
		t.Fatalf("cover = %v, want the aggregated /24", ps)
	}
}
