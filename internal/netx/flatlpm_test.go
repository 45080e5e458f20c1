package netx

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

func TestFlatLPMBasic(t *testing.T) {
	ps := []Prefix{
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("10.1.0.0/16"),
		MustParsePrefix("10.1.2.0/24"),
	}
	f := BuildFlatLPM(ps, []uint32{8, 16, 24})
	if f.Len() != 3 {
		t.Fatalf("Len = %d", f.Len())
	}
	cases := []struct {
		addr string
		want uint32
		ok   bool
	}{
		{"10.1.2.3", 24, true},
		{"10.1.3.3", 16, true},
		{"10.2.0.1", 8, true},
		{"11.0.0.1", 0, false},
		{"255.255.255.255", 0, false},
	}
	for _, c := range cases {
		got, ok := f.Lookup(MustParseAddr(c.addr))
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Lookup(%s) = %d,%v want %d,%v", c.addr, got, ok, c.want, c.ok)
		}
	}
}

func TestFlatLPMEmptyAndEdges(t *testing.T) {
	f := BuildFlatLPM(nil, nil)
	if f.Contains(MustParseAddr("1.2.3.4")) || f.Len() != 0 {
		t.Fatal("empty table matched")
	}
	// Default route alone covers everything, including both address-space ends.
	f = BuildFlatLPM([]Prefix{PrefixFrom(0, 0)}, []uint32{7})
	for _, s := range []string{"0.0.0.0", "255.255.255.255", "128.0.0.1"} {
		if v, ok := f.Lookup(MustParseAddr(s)); !ok || v != 7 {
			t.Fatalf("default route at %s: %d %v", s, v, ok)
		}
	}
	// A /32 at the very top of the space (its Last()+1 would overflow).
	f = BuildFlatLPM([]Prefix{MustParsePrefix("255.255.255.255/32")}, []uint32{9})
	if v, ok := f.Lookup(MustParseAddr("255.255.255.255")); !ok || v != 9 {
		t.Fatalf("top /32: %d %v", v, ok)
	}
	if f.Contains(MustParseAddr("255.255.255.254")) {
		t.Fatal("top /32 overmatched")
	}
}

func TestFlatLPMDuplicateOverride(t *testing.T) {
	p := MustParsePrefix("192.0.2.0/24")
	f := BuildFlatLPM([]Prefix{p, p}, []uint32{1, 2})
	if f.Len() != 1 {
		t.Fatalf("Len = %d", f.Len())
	}
	if v, _ := f.Lookup(MustParseAddr("192.0.2.9")); v != 2 {
		t.Fatalf("duplicate override broken: %d", v)
	}
}

// flatPropertySets are the adversarial prefix-set generators shared by the
// three-way property test and the fuzz seed corpus: uniformly random tables,
// deep nesting chains (> the classifier's 17-slot scratch), /0 and /32
// extremes, duplicates, and dense same-/16 clusters (many cuts per root16
// chunk).
func flatPropertySets(rng *rand.Rand) [][]Prefix {
	var sets [][]Prefix

	uniform := make([]Prefix, 200)
	for i := range uniform {
		uniform[i] = PrefixFrom(Addr(rng.Uint32()), uint8(rng.Intn(33)))
	}
	sets = append(sets, uniform)

	// One 33-deep chain (every length 0..32) plus scattered noise.
	chain := make([]Prefix, 0, 64)
	base := Addr(rng.Uint32())
	for bits := 0; bits <= 32; bits++ {
		chain = append(chain, PrefixFrom(base, uint8(bits)))
	}
	for i := 0; i < 20; i++ {
		chain = append(chain, PrefixFrom(Addr(rng.Uint32()), uint8(rng.Intn(33))))
	}
	sets = append(sets, chain)

	// Duplicates with conflicting values (later wins), plus /0 and /32.
	dup := []Prefix{
		PrefixFrom(0, 0), PrefixFrom(0, 0),
		PrefixFrom(Addr(rng.Uint32()), 32),
	}
	for i := 0; i < 30; i++ {
		p := PrefixFrom(Addr(rng.Uint32()), uint8(rng.Intn(33)))
		dup = append(dup, p, p)
	}
	sets = append(sets, dup)

	// Dense cluster inside one /16: stresses the per-chunk cut search.
	cluster := make([]Prefix, 0, 120)
	hi := Addr(rng.Uint32()) &^ 0xFFFF
	for i := 0; i < 120; i++ {
		cluster = append(cluster, PrefixFrom(hi|Addr(rng.Uint32()&0xFFFF), uint8(17+rng.Intn(16))))
	}
	sets = append(sets, cluster)
	return sets
}

// TestFlatLPMProperty is the three-way oracle: Trie/LPM, SortedLPM, and
// FlatLPM must agree on Lookup for every probe, and LPM.Matches and
// FlatLPM.Matches must yield the identical (bits, value) sequence.
func TestFlatLPMProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 12; iter++ {
		for _, ps := range flatPropertySets(rng) {
			vs := make([]uint32, len(ps))
			tr := NewTrie()
			for i := range ps {
				vs[i] = rng.Uint32()
				tr.Insert(ps[i], vs[i])
			}
			lpm := tr.Freeze()
			sorted := NewSortedLPM(ps, vs)
			flat := BuildFlatLPM(ps, vs)
			if flat.Len() != lpm.Len() || sorted.Len() != lpm.Len() {
				t.Fatalf("size mismatch: flat %d sorted %d trie %d",
					flat.Len(), sorted.Len(), lpm.Len())
			}
			for probe := 0; probe < 2000; probe++ {
				var a Addr
				if probe%2 == 0 && len(ps) > 0 {
					p := ps[rng.Intn(len(ps))]
					a = p.First() + Addr(rng.Uint64()%p.NumAddrs())
				} else {
					a = Addr(rng.Uint32())
				}
				v1, ok1 := lpm.Lookup(a)
				v2, ok2 := sorted.Lookup(a)
				v3, ok3 := flat.Lookup(a)
				if v1 != v2 || ok1 != ok2 || v1 != v3 || ok1 != ok3 {
					t.Fatalf("Lookup divergence at %v: trie %d,%v sorted %d,%v flat %d,%v",
						a, v1, ok1, v2, ok2, v3, ok3)
				}
				assertSameMatches(t, lpm, flat, a)
			}
			assertEntriesOfRoundtrip(t, flat, ps)
		}
	}
}

type matchPair struct {
	bits  uint8
	value uint32
}

// collectMatches lists the trie's covers of a, shortest first.
func collectMatches(lpm *LPM, a Addr) []matchPair {
	var out []matchPair
	lpm.Matches(a, func(bits uint8, value uint32) bool {
		out = append(out, matchPair{bits, value})
		return true
	})
	return out
}

// assertSameMatches checks FindChain against the trie's covers of a: the
// zero-copy view carries the same lengths and values untruncated, its entry
// indexes are self-consistent (each entry stores its chain value), and it
// ends at the hit entry itself.
func assertSameMatches(t *testing.T, lpm *LPM, flat *FlatLPM, a Addr) {
	t.Helper()
	want := collectMatches(lpm, a)
	e, vals, ents := flat.FindChain(a)
	if (e >= 0) != (len(want) > 0) {
		t.Fatalf("FindChain(%v) entry = %d with %d covers", a, e, len(want))
	}
	if len(vals) != len(want) || len(ents) != len(want) {
		t.Fatalf("FindChain(%v) chain lengths %d/%d, want %d", a, len(vals), len(ents), len(want))
	}
	for i := range want {
		got := matchPair{flat.entBits[ents[i]], vals[i]}
		if got != want[i] {
			t.Fatalf("FindChain(%v)[%d]: trie %+v flat %+v", a, i, want[i], got)
		}
		if flat.values[ents[i]] != vals[i] {
			t.Fatalf("FindChain(%v) ents[%d]=%d has value %d, want %d",
				a, i, ents[i], flat.values[ents[i]], vals[i])
		}
	}
	if e >= 0 && ents[len(ents)-1] != uint32(e) {
		t.Fatalf("FindChain(%v) last ent %d != entry %d", a, ents[len(ents)-1], e)
	}
}

// assertEntriesOfRoundtrip checks the prefix → entry index mapping: the
// stored (masked) prefixes, in prefix order, resolve one by one to entries
// holding their own address and length, and chains reported for each one's
// first address pass through its entry. A prefix that is not stored stops
// the walk at its position.
func assertEntriesOfRoundtrip(t *testing.T, flat *FlatLPM, ps []Prefix) {
	t.Helper()
	var stored []Prefix
	for _, p := range ps {
		stored = append(stored, PrefixFrom(p.Addr, p.Bits))
	}
	slices.SortFunc(stored, Prefix.Compare)
	stored = slices.Compact(stored)
	var ents []int32
	if miss := flat.EntriesOf(stored, func(e int32) { ents = append(ents, e) }); miss >= 0 {
		t.Fatalf("EntriesOf: stored prefix %v not found", stored[miss])
	}
	if len(ents) != len(stored) {
		t.Fatalf("EntriesOf resolved %d of %d stored prefixes", len(ents), len(stored))
	}
	for i, m := range stored {
		e := ents[i]
		if flat.entAddr[e] != uint32(m.Addr) || flat.entBits[e] != m.Bits {
			t.Fatalf("EntriesOf: %v resolves to entry %d, which holds %x/%d", m, e, flat.entAddr[e], flat.entBits[e])
		}
		if want, ok := flat.Lookup(m.First()); ok {
			_, _, chain := flat.FindChain(m.First())
			if !slices.Contains(chain, uint32(e)) {
				t.Fatalf("EntriesOf: %v resolves to entry %d, not on its first address's chain (lpm=%d)", m, e, want)
			}
		}
	}
	// A sparse subset gallops over the entries between its prefixes.
	for _, stride := range []int{2, 5, 17} {
		var sub []Prefix
		var want []int32
		for i := 0; i < len(stored); i += stride {
			sub, want = append(sub, stored[i]), append(want, ents[i])
		}
		var got []int32
		if miss := flat.EntriesOf(sub, func(e int32) { got = append(got, e) }); miss >= 0 || !slices.Equal(got, want) {
			t.Fatalf("EntriesOf of every %dth stored prefix: entries %v (stopped at %d), want %v", stride, got, miss, want)
		}
	}
	// An unstored prefix stops the walk where it stands.
	missing := Prefix{Addr: 0x01020304, Bits: 32}
	at, found := slices.BinarySearchFunc(stored, missing, Prefix.Compare)
	if found {
		return
	}
	probe := slices.Insert(slices.Clone(stored), at, missing)
	ents = ents[:0]
	if miss := flat.EntriesOf(probe, func(e int32) { ents = append(ents, e) }); miss != at || len(ents) != at {
		t.Fatalf("EntriesOf with unstored %v at %d stopped at %d after %d entries", missing, at, miss, len(ents))
	}
}

// encodeFlatFuzzInput packs a prefix table and probe addresses into the
// FuzzFlatLPM wire format: count byte, then 5 bytes per prefix (addr,
// bits), then 4 bytes per probe.
func encodeFlatFuzzInput(ps []Prefix, probes []Addr) []byte {
	if len(ps) > 255 {
		ps = ps[:255]
	}
	out := []byte{byte(len(ps))}
	for _, p := range ps {
		out = binary.BigEndian.AppendUint32(out, uint32(p.Addr))
		out = append(out, p.Bits)
	}
	for _, a := range probes {
		out = binary.BigEndian.AppendUint32(out, uint32(a))
	}
	return out
}

// FuzzFlatLPM decodes an arbitrary prefix table + probe set and requires
// FlatLPM to agree with the reference Trie on every probe's Lookup and
// covering-prefix walk. Seeds come from the property-test generators.
func FuzzFlatLPM(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	for _, ps := range flatPropertySets(rng) {
		probes := make([]Addr, 16)
		for i := range probes {
			probes[i] = Addr(rng.Uint32())
		}
		f.Add(encodeFlatFuzzInput(ps, probes))
	}
	f.Add([]byte{0})
	f.Add(encodeFlatFuzzInput([]Prefix{PrefixFrom(0, 0)}, []Addr{0, ^Addr(0)}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := int(data[0])
		data = data[1:]
		if len(data) < n*5 {
			return
		}
		ps := make([]Prefix, n)
		vs := make([]uint32, n)
		tr := NewTrie()
		for i := 0; i < n; i++ {
			rec := data[i*5:]
			// Bits beyond 32 fold back into range rather than rejecting the
			// input, so every byte string exercises the builder. Raw
			// (unmasked) addresses are deliberate: BuildFlatLPM must mask
			// exactly as Trie.Insert's bit walk does.
			ps[i] = Prefix{Addr: Addr(binary.BigEndian.Uint32(rec)), Bits: rec[4] % 33}
			vs[i] = uint32(i + 1)
			tr.Insert(ps[i], vs[i])
		}
		data = data[n*5:]
		flat := BuildFlatLPM(ps, vs)
		lpm := tr.Freeze()
		if flat.Len() != lpm.Len() {
			t.Fatalf("size: flat %d trie %d", flat.Len(), lpm.Len())
		}
		probe := func(a Addr) {
			v1, ok1 := lpm.Lookup(a)
			v2, ok2 := flat.Lookup(a)
			if v1 != v2 || ok1 != ok2 {
				t.Fatalf("Lookup(%v): trie %d,%v flat %d,%v", a, v1, ok1, v2, ok2)
			}
			assertSameMatches(t, lpm, flat, a)
		}
		for i := 0; i+4 <= len(data) && i < 64*4; i += 4 {
			probe(Addr(binary.BigEndian.Uint32(data[i:])))
		}
		// Boundary probes around every stored prefix: first/last addresses
		// and their neighbours are where cut arithmetic goes wrong.
		for _, p := range ps {
			probe(p.First())
			probe(p.Last())
			probe(p.First() - 1)
			probe(p.Last() + 1)
		}
	})
}
