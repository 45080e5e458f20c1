package netx

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrieEmpty(t *testing.T) {
	tr := NewTrie()
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, ok := tr.Lookup(MustParseAddr("1.2.3.4")); ok {
		t.Fatal("empty trie matched")
	}
}

func TestTrieBasicLPM(t *testing.T) {
	tr := NewTrie()
	tr.Insert(MustParsePrefix("10.0.0.0/8"), 8)
	tr.Insert(MustParsePrefix("10.1.0.0/16"), 16)
	tr.Insert(MustParsePrefix("10.1.2.0/24"), 24)

	cases := []struct {
		addr string
		want uint32
		ok   bool
	}{
		{"10.1.2.3", 24, true},
		{"10.1.3.3", 16, true},
		{"10.2.0.1", 8, true},
		{"11.0.0.1", 0, false},
		{"10.1.2.255", 24, true},
	}
	for _, c := range cases {
		got, ok := tr.Lookup(MustParseAddr(c.addr))
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Lookup(%s) = %d,%v want %d,%v", c.addr, got, ok, c.want, c.ok)
		}
	}
}

func TestTrieDefaultRoute(t *testing.T) {
	tr := NewTrie()
	tr.Insert(PrefixFrom(0, 0), 99)
	tr.Insert(MustParsePrefix("192.0.2.0/24"), 1)
	if v, ok := tr.Lookup(MustParseAddr("8.8.8.8")); !ok || v != 99 {
		t.Fatalf("default route: %d %v", v, ok)
	}
	if v, ok := tr.Lookup(MustParseAddr("192.0.2.1")); !ok || v != 1 {
		t.Fatalf("specific over default: %d %v", v, ok)
	}
}

func TestTrieReplace(t *testing.T) {
	tr := NewTrie()
	p := MustParsePrefix("203.0.113.0/24")
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after replace", tr.Len())
	}
	if v, _ := tr.Get(p); v != 2 {
		t.Fatalf("Get = %d", v)
	}
}

func TestTrieGetExact(t *testing.T) {
	tr := NewTrie()
	tr.Insert(MustParsePrefix("10.0.0.0/8"), 8)
	if _, ok := tr.Get(MustParsePrefix("10.0.0.0/16")); ok {
		t.Fatal("Get matched a non-inserted more-specific")
	}
	if v, ok := tr.Get(MustParsePrefix("10.0.0.0/8")); !ok || v != 8 {
		t.Fatalf("Get exact = %d %v", v, ok)
	}
}

func TestTrieLookupPrefix(t *testing.T) {
	tr := NewTrie()
	tr.Insert(MustParsePrefix("10.0.0.0/8"), 8)
	tr.Insert(MustParsePrefix("10.64.0.0/10"), 10)
	p, v, ok := tr.LookupPrefix(MustParseAddr("10.65.1.2"))
	if !ok || v != 10 || p != MustParsePrefix("10.64.0.0/10") {
		t.Fatalf("LookupPrefix = %v %d %v", p, v, ok)
	}
}

func TestTrieWalkOrder(t *testing.T) {
	tr := NewTrie()
	ins := []string{"192.0.2.0/24", "10.0.0.0/8", "10.0.0.0/16", "172.16.0.0/12"}
	for i, s := range ins {
		tr.Insert(MustParsePrefix(s), uint32(i))
	}
	var got []Prefix
	tr.Walk(func(p Prefix, _ uint32) bool {
		got = append(got, p)
		return true
	})
	if len(got) != len(ins) {
		t.Fatalf("Walk visited %d prefixes", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Compare(got[i]) >= 0 {
			t.Fatalf("Walk order violated: %v before %v", got[i-1], got[i])
		}
	}
}

func TestTrieWalkEarlyStop(t *testing.T) {
	tr := NewTrie()
	tr.Insert(MustParsePrefix("10.0.0.0/8"), 0)
	tr.Insert(MustParsePrefix("11.0.0.0/8"), 1)
	n := 0
	tr.Walk(func(Prefix, uint32) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Walk did not stop early: %d visits", n)
	}
}

// refLPM is a brute-force longest-prefix-match used as the property-test
// oracle.
type refLPM struct {
	ps []Prefix
	vs []uint32
}

func (r *refLPM) lookup(a Addr) (uint32, bool) {
	best := -1
	for i, p := range r.ps {
		if p.Contains(a) && (best == -1 || p.Bits > r.ps[best].Bits) {
			best = i
		}
	}
	if best == -1 {
		return 0, false
	}
	return r.vs[best], true
}

func TestTrieMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 50; iter++ {
		tr := NewTrie()
		ref := &refLPM{}
		seen := map[Prefix]int{}
		for i := 0; i < 200; i++ {
			p := PrefixFrom(Addr(rng.Uint32()), uint8(rng.Intn(25)+8))
			v := rng.Uint32()
			tr.Insert(p, v)
			if j, ok := seen[p]; ok {
				ref.vs[j] = v
			} else {
				seen[p] = len(ref.ps)
				ref.ps = append(ref.ps, p)
				ref.vs = append(ref.vs, v)
			}
		}
		lpm := tr.Freeze()
		for i := 0; i < 2000; i++ {
			var a Addr
			if i%2 == 0 && len(ref.ps) > 0 {
				// Bias probes into stored prefixes.
				p := ref.ps[rng.Intn(len(ref.ps))]
				a = p.First() + Addr(rng.Uint64()%p.NumAddrs())
			} else {
				a = Addr(rng.Uint32())
			}
			wantV, wantOK := ref.lookup(a)
			gotV, gotOK := tr.Lookup(a)
			if gotV != wantV || gotOK != wantOK {
				t.Fatalf("Trie.Lookup(%v) = %d,%v want %d,%v", a, gotV, gotOK, wantV, wantOK)
			}
			gotV, gotOK = lpm.Lookup(a)
			if gotV != wantV || gotOK != wantOK {
				t.Fatalf("LPM.Lookup(%v) = %d,%v want %d,%v", a, gotV, gotOK, wantV, wantOK)
			}
		}
	}
}

func TestTrieFreezeIndependent(t *testing.T) {
	tr := NewTrie()
	tr.Insert(MustParsePrefix("10.0.0.0/8"), 1)
	lpm := tr.Freeze()
	tr.Insert(MustParsePrefix("11.0.0.0/8"), 2)
	if lpm.Contains(MustParseAddr("11.1.1.1")) {
		t.Fatal("Freeze is not a snapshot")
	}
	if lpm.Len() != 1 {
		t.Fatalf("LPM.Len = %d", lpm.Len())
	}
}

func TestTrieQuickInsertedAlwaysFound(t *testing.T) {
	f := func(addr uint32, bits uint8, val uint32) bool {
		p := PrefixFrom(Addr(addr), bits%33)
		tr := NewTrie()
		tr.Insert(p, val)
		v, ok := tr.Lookup(p.First())
		return ok && v == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLPMMatches(t *testing.T) {
	tr := NewTrie()
	tr.Insert(PrefixFrom(0, 0), 0)
	tr.Insert(MustParsePrefix("10.0.0.0/8"), 8)
	tr.Insert(MustParsePrefix("10.1.0.0/16"), 16)
	tr.Insert(MustParsePrefix("10.1.2.0/24"), 24)
	lpm := tr.Freeze()

	var got []uint32
	lpm.Matches(MustParseAddr("10.1.2.3"), func(bits uint8, v uint32) bool {
		got = append(got, v)
		return true
	})
	want := []uint32{0, 8, 16, 24} // shortest first
	if len(got) != len(want) {
		t.Fatalf("Matches = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Matches order = %v", got)
		}
	}

	// Early stop.
	n := 0
	lpm.Matches(MustParseAddr("10.1.2.3"), func(uint8, uint32) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("early stop visited %d", n)
	}

	// 11.0.0.1 is covered only by the default route.
	got = got[:0]
	lpm.Matches(MustParseAddr("11.0.0.1"), func(bits uint8, v uint32) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("Matches(11.0.0.1) = %v", got)
	}
	// 10.2.x is covered by the default route and the /8.
	got = got[:0]
	lpm.Matches(MustParseAddr("10.2.0.1"), func(bits uint8, v uint32) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 2 || got[1] != 8 {
		t.Fatalf("Matches(10.2.0.1) = %v", got)
	}
}
