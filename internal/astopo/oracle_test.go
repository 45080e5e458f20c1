package astopo

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
)

// naiveIndexOracle is the map-based naive index NewNaiveIndex replaced: every
// (AS, prefix) hop hashed into one seen-set, each new prefix appended to its
// AS's slice in first-seen order.
func naiveIndexOracle(g *Graph, anns []bgp.Announcement) [][]netx.Prefix {
	type seenKey struct {
		as int32
		p  netx.Prefix
	}
	seen := make(map[seenKey]struct{})
	prefixes := make([][]netx.Prefix, g.NumASes())
	for _, a := range anns {
		for _, as := range a.Path {
			i := g.Index(as)
			if i < 0 {
				continue
			}
			k := seenKey{int32(i), a.Prefix}
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			prefixes[i] = append(prefixes[i], a.Prefix)
		}
	}
	return prefixes
}

// transitDegreesOracle returns, per AS index, the number of distinct neighbours
// the AS has when it appears in the middle of a path (i.e. when it provides
// transit). Stubs have transit degree 0.
func transitDegreesOracle(g *Graph, anns []bgp.Announcement) []int {
	sets := make([]map[int32]struct{}, len(g.asns))
	for _, a := range anns {
		for i := 1; i+1 < len(a.Path); i++ {
			m := g.idx[a.Path[i]]
			if sets[m] == nil {
				sets[m] = make(map[int32]struct{})
			}
			sets[m][int32(g.idx[a.Path[i-1]])] = struct{}{}
			sets[m][int32(g.idx[a.Path[i+1]])] = struct{}{}
		}
	}
	out := make([]int, len(g.asns))
	for i, s := range sets {
		out[i] = len(s)
	}
	return out
}

// inferRelationshipsOracle is InferRelationships as it was before its sets
// were found by sorting: transit neighbours, export triples and the origins
// reached via each directed link are deduplicated by hashing into maps — one
// map of origin sets per link, read only for its length.
func inferRelationshipsOracle(g *Graph, anns []bgp.Announcement, peerDegreeRatio float64) {
	if peerDegreeRatio == 0 {
		peerDegreeRatio = 0.1
	}
	td := transitDegreesOracle(g, anns)

	type votes struct {
		c2p, p2c int // from the key's lower-index perspective
		top      int // occurrences adjacent to the path top
		nonFirst int // occurrences not in the leftmost path position
		total    int
	}
	tally := make(map[[2]int32]*votes)
	vote := func(u, v int, r Rel, atTop, nonFirst bool) {
		k := relKey(u, v)
		t := tally[k]
		if t == nil {
			t = &votes{}
			tally[k] = t
		}
		if u > v {
			if r == RelC2P {
				r = RelP2C
			} else {
				r = RelC2P
			}
		}
		if r == RelC2P {
			t.c2p++
		} else {
			t.p2c++
		}
		if atTop {
			t.top++
		}
		if nonFirst {
			t.nonFirst++
		}
		t.total++
	}

	// better reports whether path position i beats position j as the top.
	better := func(p []bgp.ASN, i, j int) bool {
		a, b := g.idx[p[i]], g.idx[p[j]]
		if td[a] != td[b] {
			return td[a] > td[b]
		}
		if g.deg[a] != g.deg[b] {
			return g.deg[a] > g.deg[b]
		}
		return g.asns[a] < g.asns[b]
	}

	// Collect positional votes, all export triples [x, u, v], and the
	// per-directed-pair origin diversity (how many distinct origins were
	// reached via u→v): a neighbour that hands over routes toward a large
	// share of all origins is handing over a full table, which only
	// providers do.
	type triple struct{ x, u, v int32 }
	var triples []triple
	tripleSeen := make(map[triple]struct{})
	originsVia := make(map[[2]int32]map[int32]struct{})
	allOrigins := make(map[int32]struct{})
	for _, a := range anns {
		p := a.Path
		if len(p) < 2 {
			continue
		}
		origin := int32(g.idx[p[len(p)-1]])
		allOrigins[origin] = struct{}{}
		top := 0
		for i := 1; i < len(p); i++ {
			if better(p, i, top) {
				top = i
			}
		}
		// The path reads collector-peer ... origin and the announcement
		// propagated right-to-left. Valley-freeness: right of the top the
		// announcement climbed customer→provider hops, so there p[i] is a
		// provider of p[i+1]; left of the top it descended
		// provider→customer hops, so there p[i] is a customer of p[i+1].
		for i := 0; i+1 < len(p); i++ {
			u, v := g.idx[p[i]], g.idx[p[i+1]]
			if u == v {
				continue
			}
			atTop := i == top || i+1 == top
			if i+1 <= top {
				vote(u, v, RelC2P, atTop, i > 0)
			} else {
				vote(u, v, RelP2C, atTop, i > 0)
			}
			if i > 0 {
				x := g.idx[p[i-1]]
				if x != u && x != v {
					tr := triple{int32(x), int32(u), int32(v)}
					if _, dup := tripleSeen[tr]; !dup {
						tripleSeen[tr] = struct{}{}
						triples = append(triples, tr)
					}
				}
			}
			dk := [2]int32{int32(u), int32(v)}
			set := originsVia[dk]
			if set == nil {
				set = make(map[int32]struct{})
				originsVia[dk] = set
			}
			set[origin] = struct{}{}
		}
	}

	// Full-table evidence: for link (u,v), if the origins reached via u→v
	// cover a large share of all origins AND strongly dominate the reverse
	// direction, v handed u a (near-)full table, so u is v's customer.
	// ftEvidence is keyed like rels: 1 = lower-index AS is the customer,
	// 2 = higher-index AS is the customer, 3 = both look full (ignore).
	totalOrigins := len(allOrigins)
	ftEvidence := make(map[[2]int32]uint8)
	ftThreshold := totalOrigins / 5
	if ftThreshold < 8 {
		ftThreshold = 8
	}
	for dk, set := range originsVia {
		u, v := dk[0], dk[1]
		if u > v {
			continue // handle each undirected link once, from the low side
		}
		ruv := len(set)
		rvu := len(originsVia[[2]int32{v, u}])
		k := relKey(int(u), int(v))
		switch {
		case ruv >= ftThreshold && ruv >= 4*rvu:
			ftEvidence[k] = 1 // v handed u the table: u (lower) is customer
		case rvu >= ftThreshold && rvu >= 4*ruv:
			ftEvidence[k] = 2
		case ruv >= ftThreshold && rvu >= ftThreshold:
			ftEvidence[k] = 3
		}
	}

	// rel holds the working assignment for links not annotated yet.
	work := make(map[[2]int32]Rel, len(tally))
	injected := func(k [2]int32) bool {
		_, done := g.rels[k]
		return done
	}
	relOf := func(u, v int32) Rel {
		k := relKey(int(u), int(v))
		r, ok := g.rels[k]
		if !ok {
			r = work[k]
		}
		if int(u) > int(v) {
			switch r {
			case RelC2P:
				return RelP2C
			case RelP2C:
				return RelC2P
			}
		}
		return r
	}

	// Bootstrap from votes.
	for k, t := range tally {
		if injected(k) {
			continue
		}
		switch {
		case t.c2p > t.p2c:
			work[k] = RelC2P
		case t.p2c > t.c2p:
			work[k] = RelP2C
		default:
			work[k] = RelPeer
		}
	}

	// Iterate export-evidence refinement to a fixpoint.
	for iter := 0; iter < 10; iter++ {
		// downEvidence[k]: bit 0 = lower AS exports higher's routes
		// (higher is lower's customer); bit 1 = the reverse.
		downEvidence := make(map[[2]int32]uint8)
		for _, tr := range triples {
			// x customer of u? Then the export is permitted regardless of
			// the u-v relationship and proves nothing.
			if relOf(tr.x, tr.u) == RelC2P {
				continue
			}
			k := relKey(int(tr.u), int(tr.v))
			if int(tr.u) < int(tr.v) {
				downEvidence[k] |= 1
			} else {
				downEvidence[k] |= 2
			}
		}
		changed := false
		for k, t := range tally {
			if injected(k) {
				continue
			}
			u, v := int(k[0]), int(k[1])
			tdu, tdv := td[u], td[v]
			ratio := 0.0
			if tdu > 0 && tdv > 0 {
				ratio = float64(minInt(tdu, tdv)) / float64(maxInt(tdu, tdv))
			}
			var next Rel
			switch ev, ft := downEvidence[k], ftEvidence[k]; {
			case ev == 1:
				next = RelP2C
			case ev == 2:
				next = RelC2P
			case ev == 3:
				next = RelPeer
			case ft == 1:
				next = RelC2P // lower-index AS received the full table
			case ft == 2:
				next = RelP2C
			case t.top == t.total && t.nonFirst > 0 && tdu > 0 && tdv > 0 && ratio >= peerDegreeRatio:
				// Only ever seen straddling path tops, between two transit
				// providers, with no export evidence, and observed from a
				// vantage deeper than the link itself: the peering
				// signature. Links seen exclusively leftmost (a collector
				// peer's direct view) stay with their positional votes —
				// misreading such a backup customer link as peering would
				// cut whole subtrees out of the customer cone.
				next = RelPeer
			case t.c2p > t.p2c:
				next = RelC2P
			case t.p2c > t.c2p:
				next = RelP2C
			default:
				next = RelPeer
			}
			if work[k] != next {
				work[k] = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	for k, r := range work {
		g.rels[k] = r
	}
}

// oracleAnns extends a random valley-free topology with what the packed-key
// paths must also get right: one prefix announced over several paths,
// repeated (prefix, path) pairs, and path ASes the graph does not index. The
// graph is built from the base announcements only, so the extra ASes are
// unknown to it.
func oracleAnns(rng *rand.Rand) (*Graph, []bgp.Announcement) {
	base := randomValleyFreeAnns(rng)
	g := NewGraph(base)
	anns := slices.Clone(base)
	shared := base[rng.Intn(len(base))].Prefix
	for range 4 {
		a := base[rng.Intn(len(base))]
		anns = append(anns, bgp.Announcement{Prefix: shared, Path: a.Path, Origin: a.Origin})
	}
	for range 6 {
		anns = append(anns, base[rng.Intn(len(base))])
	}
	for range 3 {
		a := base[rng.Intn(len(base))]
		path := append([]bgp.ASN{bgp.ASN(64900 + rng.Intn(50))}, a.Path...)
		anns = append(anns, bgp.Announcement{Prefix: a.Prefix, Path: path, Origin: a.Origin})
	}
	rng.Shuffle(len(anns), func(i, j int) { anns[i], anns[j] = anns[j], anns[i] })
	return g, anns
}

// TestNaiveIndexMatchesOracle: the sort-and-dedupe naive index holds exactly
// the map-based oracle's per-AS prefix sets, each in prefix order, whether the
// announcements come shuffled or grouped by prefix.
func TestNaiveIndexMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for iter := range 50 {
		g, anns := oracleAnns(rng)
		if iter%2 == 1 {
			// Grouped by prefix, as a table dump delivers them: runs of
			// equal prefixes, which the stamps dedupe before the sort.
			slices.SortStableFunc(anns, func(a, b bgp.Announcement) int { return a.Prefix.Compare(b.Prefix) })
		}
		ni := NewNaiveIndex(g, anns)
		for u, want := range naiveIndexOracle(g, anns) {
			got := ni.ValidPrefixes(u)
			if !slices.IsSortedFunc(got, netx.Prefix.Compare) {
				t.Fatalf("iter %d: %s's prefixes are not in prefix order: %v", iter, g.ASN(u), got)
			}
			slices.SortFunc(want, netx.Prefix.Compare)
			if !slices.Equal(got, want) || ni.NumPrefixes(u) != len(want) {
				t.Fatalf("iter %d: %s holds %v, the oracle %v", iter, g.ASN(u), got, want)
			}
		}
	}
}

// TestInferRelationshipsMatchesOracle: inference that finds its sets by
// sorting annotates every link as the map-based oracle does, on valley-free
// hierarchies (extended as oracleAnns does) and on random cyclic topologies
// with org meshes.
func TestInferRelationshipsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for iter := range 50 {
		var anns []bgp.Announcement
		var orgs [][]bgp.ASN
		if iter%2 == 0 {
			_, anns = oracleAnns(rng)
		} else {
			_, anns, orgs = randomTopology(rng)
		}
		got, want := NewGraph(anns), NewGraph(anns)
		got.AddOrgMesh(orgs)
		want.AddOrgMesh(orgs)
		got.InferRelationships(anns, 0)
		inferRelationshipsOracle(want, anns, 0)
		if !maps.Equal(got.rels, want.rels) {
			t.Fatalf("iter %d: relationships differ from the oracle's:\n got %v\nwant %v", iter, got.Links(), want.Links())
		}
	}
}

// TestPackedKeyWidthBoundary: MaxASes ASes fit the packed sort keys' AS index
// fields and one more does not, so a graph that large fails its build loudly
// instead of aliasing two ASes in one key.
func TestPackedKeyWidthBoundary(t *testing.T) {
	const top = MaxASes - 1
	for _, w := range [][3]int{{top, top, top}, {top, 0, top}, {0, top, 0}, {1, 2, 3}} {
		if a, b, c := unpackASes(packASes(w[0], w[1], w[2])); [3]int{a, b, c} != w {
			t.Fatalf("packASes%v unpacks to (%d, %d, %d)", w, a, b, c)
		}
	}
	checkPackable(MaxASes)
	defer func() {
		if recover() == nil {
			t.Fatalf("checkPackable(%d) did not panic", MaxASes+1)
		}
	}()
	checkPackable(MaxASes + 1)
}

// TestNaiveIndexAllocsConstant: NewNaiveIndex allocates the same few slices
// whatever the table size (keys, sort scratch, stamps, offsets, prefixes and
// the index itself) — no per-AS slice, no map.
func TestNaiveIndexAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const bound = 6
	base := randomValleyFreeAnns(rand.New(rand.NewSource(36)))
	g := NewGraph(base)
	var counts []float64
	for _, copies := range []int{1, 64} {
		var anns []bgp.Announcement
		for c := range copies {
			for _, a := range base {
				a.Prefix.Addr += netx.Addr(c) << 24
				anns = append(anns, a)
			}
		}
		counts = append(counts, testing.AllocsPerRun(5, func() { NewNaiveIndex(g, anns) }))
	}
	t.Logf("NewNaiveIndex allocations at 1× and 64× the table: %v", counts)
	if counts[0] != counts[1] || counts[0] > bound {
		t.Fatalf("NewNaiveIndex allocates %v times at 1× and 64× the table, want one count of at most %d", counts, bound)
	}
}
