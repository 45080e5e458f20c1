package netx

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func iv(lo, hi string) Interval {
	return Interval{MustParseAddr(lo), MustParseAddr(hi)}
}

// sameSet reports whether two sets hold the same addresses: their canonical
// interval lists are equal.
// Union returns the set union: the algebra the properties below check
// Subtract against, which no production code needs.
func (s IntervalSet) Union(t IntervalSet) IntervalSet {
	if s.IsEmpty() {
		return t
	}
	if t.IsEmpty() {
		return s
	}
	all := make([]Interval, 0, len(s.ivs)+len(t.ivs))
	all = append(all, s.ivs...)
	all = append(all, t.ivs...)
	return NewIntervalSet(all...)
}

func sameSet(a, b IntervalSet) bool { return slices.Equal(a.Intervals(), b.Intervals()) }

func TestIntervalSetNormalize(t *testing.T) {
	s := NewIntervalSet(
		iv("10.0.0.0", "10.0.0.255"),
		iv("10.0.1.0", "10.0.1.255"),   // adjacent -> merged
		iv("10.0.0.128", "10.0.0.200"), // contained
		iv("192.0.2.0", "192.0.2.10"),
	)
	if got := len(s.Intervals()); got != 2 {
		t.Fatalf("normalized to %d intervals: %v", got, s)
	}
	if s.NumAddrs() != 512+11 {
		t.Fatalf("NumAddrs = %d", s.NumAddrs())
	}
}

func TestIntervalSetSwappedBounds(t *testing.T) {
	s := NewIntervalSet(Interval{MustParseAddr("10.0.0.9"), MustParseAddr("10.0.0.1")})
	if s.NumAddrs() != 9 {
		t.Fatalf("swapped bounds not fixed: %v", s)
	}
}

func TestIntervalSetContains(t *testing.T) {
	s := IntervalSetOfPrefixes(MustParsePrefix("10.0.0.0/8"), MustParsePrefix("192.0.2.0/24"))
	for _, c := range []struct {
		a  string
		in bool
	}{
		{"10.0.0.0", true}, {"10.255.255.255", true}, {"11.0.0.0", false},
		{"192.0.2.128", true}, {"192.0.3.0", false}, {"9.255.255.255", false},
	} {
		if got := s.Contains(MustParseAddr(c.a)); got != c.in {
			t.Errorf("Contains(%s) = %v", c.a, got)
		}
	}
}

func TestIntervalSetMaxAddressMerge(t *testing.T) {
	// Regression: Hi+1 must not overflow at 255.255.255.255.
	s := NewIntervalSet(
		iv("255.255.255.0", "255.255.255.255"),
		iv("255.255.254.0", "255.255.254.255"),
	)
	if s.NumAddrs() != 512 {
		t.Fatalf("NumAddrs = %d", s.NumAddrs())
	}
	if !s.Contains(MustParseAddr("255.255.255.255")) {
		t.Fatal("lost the last address")
	}
}

func TestIntervalSetAlgebra(t *testing.T) {
	a := IntervalSetOfPrefixes(MustParsePrefix("10.0.0.0/8"))
	b := IntervalSetOfPrefixes(MustParsePrefix("10.128.0.0/9"), MustParsePrefix("11.0.0.0/8"))

	u := a.Union(b)
	if u.NumAddrs() != 1<<24+1<<24 {
		t.Fatalf("Union size = %d", u.NumAddrs())
	}
	d := a.Subtract(b)
	if d.NumAddrs() != 1<<23 {
		t.Fatalf("Subtract size = %d", d.NumAddrs())
	}
	if !sameSet(d, IntervalSetOfPrefixes(MustParsePrefix("10.0.0.0/9"))) {
		t.Fatalf("Subtract = %v", d)
	}
}

func TestIntervalSetSubtractSplits(t *testing.T) {
	a := NewIntervalSet(iv("10.0.0.0", "10.0.0.99"))
	hole := NewIntervalSet(iv("10.0.0.40", "10.0.0.59"))
	d := a.Subtract(hole)
	want := NewIntervalSet(iv("10.0.0.0", "10.0.0.39"), iv("10.0.0.60", "10.0.0.99"))
	if !sameSet(d, want) {
		t.Fatalf("Subtract = %v want %v", d, want)
	}
}

func TestIntervalSetSubtractEverything(t *testing.T) {
	a := IntervalSetOfPrefixes(MustParsePrefix("10.0.0.0/8"))
	if !a.Subtract(a).IsEmpty() {
		t.Fatal("s - s must be empty")
	}
	all := IntervalSetOfPrefixes(PrefixFrom(0, 0))
	if !a.Subtract(all).IsEmpty() {
		t.Fatal("s - universe must be empty")
	}
}

func TestIntervalSetContainsSet(t *testing.T) {
	a := IntervalSetOfPrefixes(MustParsePrefix("10.0.0.0/8"))
	b := IntervalSetOfPrefixes(MustParsePrefix("10.3.0.0/16"))
	if !a.ContainsSet(b) {
		t.Fatal("superset check failed")
	}
	if b.ContainsSet(a) {
		t.Fatal("subset reported as superset")
	}
}

func TestSlash24Equivalents(t *testing.T) {
	s := IntervalSetOfPrefixes(MustParsePrefix("10.0.0.0/8"))
	if got := s.Slash24Equivalents(); got != 1<<16 {
		t.Fatalf("/8 = %d /24s", got)
	}
	half := NewIntervalSet(iv("10.0.0.0", "10.0.0.127"))
	if got := half.Slash24Equivalents(); got != 1 {
		t.Fatalf("128 addrs rounds to %d /24s, want 1", got)
	}
	tiny := NewIntervalSet(iv("10.0.0.0", "10.0.0.10"))
	if got := tiny.Slash24Equivalents(); got != 0 {
		t.Fatalf("11 addrs rounds to %d /24s, want 0", got)
	}
}

// randSet builds a small random set for property tests.
func randSet(rng *rand.Rand) IntervalSet {
	n := rng.Intn(6)
	ivs := make([]Interval, n)
	for i := range ivs {
		lo := Addr(rng.Uint32() % 4096)
		hi := lo + Addr(rng.Uint32()%512)
		ivs[i] = Interval{lo, hi}
	}
	return NewIntervalSet(ivs...)
}

func TestIntervalSetAlgebraProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		a, b := randSet(rng), randSet(rng)
		u, d := a.Union(b), a.Subtract(b)
		x := a.Subtract(d) // A∩B
		// |A∪B| = |A| + |B| - |A∩B|
		if u.NumAddrs() != a.NumAddrs()+b.NumAddrs()-x.NumAddrs() {
			t.Fatalf("inclusion-exclusion violated: %v %v", a, b)
		}
		// |A\B| = |A| - |A∩B|
		if d.NumAddrs() != a.NumAddrs()-x.NumAddrs() {
			t.Fatalf("subtract size violated: %v %v", a, b)
		}
		// Membership agreement on probes.
		for i := 0; i < 100; i++ {
			p := Addr(rng.Uint32() % 8192)
			inA, inB := a.Contains(p), b.Contains(p)
			if u.Contains(p) != (inA || inB) {
				t.Fatalf("union membership wrong at %v", p)
			}
			if x.Contains(p) != (inA && inB) {
				t.Fatalf("intersect membership wrong at %v", p)
			}
			if d.Contains(p) != (inA && !inB) {
				t.Fatalf("subtract membership wrong at %v", p)
			}
		}
		// Canonical form: sorted, non-overlapping, non-adjacent.
		for _, s := range []IntervalSet{u, x, d} {
			ivs := s.Intervals()
			for i := 1; i < len(ivs); i++ {
				if ivs[i].Lo <= ivs[i-1].Hi || (ivs[i-1].Hi != ^Addr(0) && ivs[i].Lo == ivs[i-1].Hi+1) {
					t.Fatalf("non-canonical result: %v", s)
				}
			}
		}
	}
}

func TestIntervalSetUnionCommutes(t *testing.T) {
	f := func(a1, a2, b1, b2 uint32) bool {
		a := NewIntervalSet(Interval{Addr(a1), Addr(a2)})
		b := NewIntervalSet(Interval{Addr(b1), Addr(b2)})
		return sameSet(a.Union(b), b.Union(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
