package astopo

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
	"spoofscope/internal/scenario"
)

// oracleGraph is Graph as it was before NewGraph built it whole: a mutable
// graph whose callers ran newGraphOracle, AddOrgMesh, AddLink and
// InferRelationships in that order, with a reverse adjacency and one
// relationship map keyed by link. Its constructor and mutators are kept
// verbatim as the oracle TestNewGraphMatchesOracle holds NewGraph to.
type oracleGraph struct {
	asns []bgp.ASN        // dense index -> ASN, sorted ascending
	idx  map[bgp.ASN]int  // ASN -> dense index
	down [][]int32        // adjacency: downstream neighbours (u -> v)
	up   [][]int32        // reverse adjacency
	deg  []int            // undirected degree (distinct neighbours)
	rels map[[2]int32]Rel // inferred relationship per directed pair (u<v key)
}

// newGraphOracle builds the directed AS graph from announcements. Adjacent
// AS-path pairs inside AS_SEQUENCEs produce edges; AS_SETs are skipped by
// the RIB digestion already.
func newGraphOracle(anns []bgp.Announcement) *oracleGraph {
	set := make(map[bgp.ASN]struct{})
	for _, a := range anns {
		for _, as := range a.Path {
			set[as] = struct{}{}
		}
	}
	asns := make([]bgp.ASN, 0, len(set))
	for as := range set {
		asns = append(asns, as)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	g := &oracleGraph{
		asns: asns,
		idx:  make(map[bgp.ASN]int, len(asns)),
		down: make([][]int32, len(asns)),
		up:   make([][]int32, len(asns)),
		deg:  make([]int, len(asns)),
		rels: make(map[[2]int32]Rel),
	}
	for i, as := range asns {
		g.idx[as] = i
	}
	type pair struct{ u, v int32 }
	seen := make(map[pair]struct{})
	for _, a := range anns {
		for i := 1; i < len(a.Path); i++ {
			u := int32(g.idx[a.Path[i-1]])
			v := int32(g.idx[a.Path[i]])
			if u == v {
				continue
			}
			if _, dup := seen[pair{u, v}]; dup {
				continue
			}
			seen[pair{u, v}] = struct{}{}
			g.down[u] = append(g.down[u], v)
			g.up[v] = append(g.up[v], u)
			if _, rev := seen[pair{v, u}]; !rev {
				// First time this undirected link is seen: count degree.
				g.deg[u]++
				g.deg[v]++
			}
		}
	}
	return g
}

// Index returns the dense index of as, or -1 if absent.
func (g *oracleGraph) Index(as bgp.ASN) int {
	if i, ok := g.idx[as]; ok {
		return i
	}
	return -1
}

// HasEdge reports whether the directed edge u→v exists (dense indices).
func (g *oracleGraph) HasEdge(u, v int) bool {
	for _, w := range g.down[u] {
		if w == int32(v) {
			return true
		}
	}
	return false
}

// AddLink inserts a bidirectional link between two ASes (dense indices),
// used for multi-AS organization meshes and WHOIS-discovered links. Both
// directions are added; missing nodes are ignored (returns false).
func (g *oracleGraph) AddLink(u, v int) bool {
	if u < 0 || v < 0 || u >= len(g.asns) || v >= len(g.asns) || u == v {
		return false
	}
	added := false
	if !g.HasEdge(u, v) {
		g.down[u] = append(g.down[u], int32(v))
		g.up[v] = append(g.up[v], int32(u))
		added = true
	}
	if !g.HasEdge(v, u) {
		g.down[v] = append(g.down[v], int32(u))
		g.up[u] = append(g.up[u], int32(v))
		added = true
	}
	return added
}

// AddOrgMesh adds a full mesh of bidirectional links between the ASes of
// each organization, and records them as sibling (peer) relationships.
// It returns the number of links added.
func (g *oracleGraph) AddOrgMesh(orgs [][]bgp.ASN) int {
	added := 0
	for _, members := range orgs {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				u, v := g.Index(members[i]), g.Index(members[j])
				if u < 0 || v < 0 {
					continue
				}
				if g.AddLink(u, v) {
					added++
				}
				g.setRel(u, v, RelPeer)
			}
		}
	}
	return added
}

func relKey(u, v int) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{int32(u), int32(v)}
}

func (g *oracleGraph) setRel(u, v int, r Rel) {
	if u > v {
		// Normalize: the relationship is stored from the perspective of the
		// lower index.
		switch r {
		case RelC2P:
			r = RelP2C
		case RelP2C:
			r = RelC2P
		}
	}
	g.rels[relKey(u, v)] = r
}

// Relationship returns the inferred relationship of the link between dense
// indices u and v, from u's perspective: RelC2P means u is a customer of v.
func (g *oracleGraph) Relationship(u, v int) Rel {
	r, ok := g.rels[relKey(u, v)]
	if !ok {
		return RelUnknown
	}
	if u > v {
		switch r {
		case RelC2P:
			return RelP2C
		case RelP2C:
			return RelC2P
		}
	}
	return r
}

// transitDegrees returns, per AS index, the number of distinct neighbours
// the AS has when it appears in the middle of a path (i.e. when it provides
// transit). Stubs have transit degree 0. Each such adjacency is one packed
// word (packASes: 0, middle AS, neighbour); sorted and deduplicated, an AS's
// words are its distinct transit neighbours. tmp is the sort's other half and
// must have room for two words per interior path hop.
func (g *oracleGraph) transitDegrees(anns []bgp.Announcement, tmp []uint64) []int {
	n := 0
	for _, a := range anns {
		n += 2 * max(len(a.Path)-2, 0)
	}
	words := make([]uint64, 0, n)
	for _, a := range anns {
		for i := 1; i+1 < len(a.Path); i++ {
			m := g.idx[a.Path[i]]
			words = append(words, packASes(0, m, g.idx[a.Path[i-1]]), packASes(0, m, g.idx[a.Path[i+1]]))
		}
	}
	netx.RadixSort(words, tmp)
	out := make([]int, len(g.asns))
	for _, w := range slices.Compact(words) {
		_, m, _ := unpackASes(w)
		out[m]++
	}
	return out
}

// InferRelationships annotates every link seen on AS paths with a business
// relationship using a Gao-style iterative heuristic:
//
// Bootstrap (positional votes): each path votes on its links. The AS with
// the highest transit degree (ties broken by degree, then lower ASN) is the
// path top; links left of it vote customer→provider, links right of it
// provider→customer. The majority sets an initial direction.
//
// Refinement (valley-free export evidence, iterated to a fixpoint): a path
// fragment [x, u, v] where x is currently NOT inferred as a customer of u
// means u exported v's routes beyond its customer side, which valley-free
// routing only permits when v is u's customer. One-sided evidence assigns
// provider→customer; two-sided evidence (mutual transit) yields peering. A
// link between two transit-providing ASes with comparable transit degrees
// (ratio ≥ peerDegreeRatio) and no export evidence in either direction is
// tagged peering — positional votes on such summit links always favour the
// bigger AS, so majority voting cannot detect them.
//
// Existing annotations (e.g. sibling links injected by AddOrgMesh) are
// preserved.
func (g *oracleGraph) InferRelationships(anns []bgp.Announcement) {
	// tmp is the other half of every radix sort below: it has room for the
	// largest word set, two per interior path hop or one per path link.
	hops, interior := 0, 0
	for _, a := range anns {
		hops += max(len(a.Path)-1, 0)
		interior += max(len(a.Path)-2, 0)
	}
	tmp := make([]uint64, 0, max(hops, 2*interior))
	td := g.transitDegrees(anns, tmp)

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
	// providers do. Triples and (u, v, origin) observations are packed
	// words (packASes), deduplicated by sorting.
	triples, via := make([]uint64, 0, hops), make([]uint64, 0, hops)
	origins := netx.NewBitset(len(g.asns))
	for _, a := range anns {
		p := a.Path
		if len(p) < 2 {
			continue
		}
		origin := g.idx[p[len(p)-1]]
		origins.Set(origin)
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
					triples = append(triples, packASes(x, u, v))
				}
			}
			via = append(via, packASes(u, v, origin))
		}
	}
	netx.RadixSort(triples, tmp)
	triples = slices.Compact(triples)
	netx.RadixSort(via, tmp)

	// Full-table evidence: for link (u,v), if the origins reached via u→v
	// cover a large share of all origins AND strongly dominate the reverse
	// direction, v handed u a (near-)full table, so u is v's customer.
	// ftEvidence is keyed like rels: 1 = lower-index AS is the customer,
	// 2 = higher-index AS is the customer, 3 = both look full (ignore).
	reached := countOrigins(via)
	ftEvidence := make(map[[2]int32]uint8)
	ftThreshold := max(origins.Count()/5, 8)
	for i, l := range reached.links {
		_, u, v := unpackASes(l)
		if u > v {
			continue // handle each undirected link once, from the low side
		}
		ruv, rvu := int(reached.counts[i]), reached.count(v, u)
		k := relKey(u, v)
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
			x, u, v := unpackASes(tr)
			// x customer of u? Then the export is permitted regardless of
			// the u-v relationship and proves nothing.
			if relOf(int32(x), int32(u)) == RelC2P {
				continue
			}
			k := relKey(u, v)
			if u < v {
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

// linkOrigins counts, per directed link u→v seen on a path, the distinct
// origins whose announcements crossed it.
type linkOrigins struct {
	links  []uint64 // packASes(0, u, v), ascending
	counts []int32  // distinct origins per link
}

// count returns the distinct origins reached via u→v, 0 for a link no path
// crossed in that direction.
func (lo linkOrigins) count(u, v int) int {
	if i, ok := slices.BinarySearch(lo.links, packASes(0, u, v)); ok {
		return int(lo.counts[i])
	}
	return 0
}

// countOrigins counts distinct origins per directed link from packed
// (u, v, origin) words in ascending order: deduplicated, each link's words
// are one run, as long as its distinct origins. The link keys are written
// over via.
func countOrigins(via []uint64) linkOrigins {
	via = slices.Compact(via)
	runs := 0
	for i, w := range via {
		if i == 0 || w>>asIndexBits != via[i-1]>>asIndexBits {
			runs++
		}
	}
	lo := linkOrigins{links: via[:0], counts: make([]int32, 0, runs)}
	for _, w := range via {
		if l := w >> asIndexBits; len(lo.links) == 0 || lo.links[len(lo.links)-1] != l {
			lo.links = append(lo.links, l)
			lo.counts = append(lo.counts, 0)
		}
		lo.counts[len(lo.counts)-1]++
	}
	return lo
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

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
	idx := make(map[bgp.ASN]int, len(g.asns))
	for i, as := range g.asns {
		idx[as] = i
	}
	for _, a := range anns {
		for _, as := range a.Path {
			i, ok := idx[as]
			if !ok {
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

// oracleAnns extends a random valley-free topology with what the packed-key
// paths must also get right: one prefix announced over several paths,
// repeated (prefix, path) pairs, and path ASes the graph does not index. The
// graph is built from the base announcements only, so the extra ASes are
// unknown to it.
func oracleAnns(t testing.TB, rng *rand.Rand) (*Graph, []bgp.Announcement) {
	base := randomValleyFreeAnns(rng)
	// A 4-byte ASN upstream of one announcement, which the graph indexes.
	a := base[rng.Intn(len(base))]
	base = append(base, bgp.Announcement{Prefix: a.Prefix, Path: append([]bgp.ASN{4_200_000_000}, a.Path...), Origin: a.Origin})
	g := mustGraph(t, base, nil, nil)
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

// TestNaiveIndexMatchesOracle: the counting-scatter naive index holds exactly
// the map-based oracle's per-AS prefix sets, each in prefix order, whether the
// announcements come shuffled or grouped by prefix.
func TestNaiveIndexMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for iter := range 50 {
		g, anns := oracleAnns(t, rng)
		if iter%2 == 1 {
			// Grouped by prefix, as a table dump delivers them: runs of
			// equal prefixes, within which the stamps dedupe.
			slices.SortStableFunc(anns, func(a, b bgp.Announcement) int { return a.Prefix.Compare(b.Prefix) })
		}
		ni := NewNaiveIndex(g, anns)
		for u, want := range naiveIndexOracle(g, anns) {
			got := ni.ValidPrefixes(u)
			if !slices.IsSortedFunc(got, netx.Prefix.Compare) {
				t.Fatalf("iter %d: %s's prefixes are not in prefix order: %v", iter, g.asns[u], got)
			}
			slices.SortFunc(want, netx.Prefix.Compare)
			if !slices.Equal(got, want) {
				t.Fatalf("iter %d: %s holds %v, the oracle %v", iter, g.asns[u], got, want)
			}
		}
	}
}

// randomExtraLinks draws extra links the way out-of-band sources name them:
// pairs of ASes the announcements show, some already linked on a path and some
// not, plus a repeat, a self-link and an AS no path names.
func randomExtraLinks(rng *rand.Rand, anns []bgp.Announcement) [][2]bgp.ASN {
	var ases []bgp.ASN
	for _, a := range anns {
		ases = append(ases, a.Path...)
	}
	pick := func() bgp.ASN { return ases[rng.Intn(len(ases))] }
	p := anns[rng.Intn(len(anns))].Path
	links := [][2]bgp.ASN{{p[0], p[len(p)-1]}, {pick(), pick()}, {pick(), pick()}, {pick(), 64999}}
	links = append(links, links[1], [2]bgp.ASN{links[2][0], links[2][0]})
	for range rng.Intn(6) {
		links = append(links, [2]bgp.ASN{pick(), pick()})
	}
	return links
}

// requireGraphMatchesOracle builds the graph of anns, orgs and extra links
// with NewGraph and with the oracle in the order every caller ran it (mesh,
// extra links, inference), and requires the same ASes, each AS's directed
// edge set, Degree, and the Relationship of every linked pair.
func requireGraphMatchesOracle(t *testing.T, label string, anns []bgp.Announcement, orgs [][]bgp.ASN, extra [][2]bgp.ASN) {
	t.Helper()
	g := mustGraph(t, anns, orgs, extra)
	o := newGraphOracle(anns)
	o.AddOrgMesh(orgs)
	for _, l := range extra {
		o.AddLink(o.Index(l[0]), o.Index(l[1]))
	}
	o.InferRelationships(anns)
	if !slices.Equal(g.asns, o.asns) {
		t.Fatalf("%s: ASes %v, the oracle's %v", label, g.asns, o.asns)
	}
	for u := range o.asns {
		want := slices.Clone(o.down[u])
		slices.Sort(want)
		if !slices.Equal(g.down[u], want) {
			t.Fatalf("%s: %s's edges lead to %v, the oracle's to %v", label, g.asns[u], g.down[u], want)
		}
		if g.deg[u] != o.deg[u] {
			t.Fatalf("%s: %s has degree %d, the oracle %d", label, g.asns[u], g.deg[u], o.deg[u])
		}
		for _, v := range slices.Concat(o.down[u], o.up[u]) {
			if got, want := g.Relationship(u, int(v)), o.Relationship(u, int(v)); got != want {
				t.Fatalf("%s: rel(%s, %s) = %v, the oracle's %v", label, g.asns[u], g.asns[int(v)], got, want)
			}
		}
	}
	// The oracle also annotates an organization's repeated member with
	// itself; no Graph method can ask for that pair.
	for k, want := range o.rels {
		if k[0] != k[1] && g.Relationship(int(k[0]), int(k[1])) != want {
			t.Fatalf("%s: rel(%s, %s) = %v, the oracle's %v", label, g.asns[int(k[0])], g.asns[int(k[1])], g.Relationship(int(k[0]), int(k[1])), want)
		}
	}
}

// TestNewGraphMatchesOracle: the one constructor builds the graph the
// oracle's mutators did — on valley-free hierarchies (extended as oracleAnns
// does), on random cyclic topologies with org meshes, half of them with extra
// links, and (without -short) on the default-scale scenario with its
// organizations and extra links.
func TestNewGraphMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for iter := range 50 {
		var anns []bgp.Announcement
		var orgs [][]bgp.ASN
		if iter%2 == 0 {
			_, anns = oracleAnns(t, rng)
		} else {
			_, anns, orgs = randomTopology(t, rng)
		}
		var extra [][2]bgp.ASN
		if iter%4 >= 2 {
			extra = randomExtraLinks(rng, anns)
		}
		requireGraphMatchesOracle(t, fmt.Sprintf("iter %d", iter), anns, orgs, extra)
	}
	if testing.Short() {
		return
	}
	s, err := scenario.Build(scenario.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var mrt bytes.Buffer
	if err := s.WriteMRT(&mrt); err != nil {
		t.Fatal(err)
	}
	rib := bgp.NewRIB()
	if err := rib.LoadMRT(&mrt); err != nil {
		t.Fatal(err)
	}
	anns := rib.Announcements()
	requireGraphMatchesOracle(t, "default scale", anns, s.Orgs().MultiASGroups(), randomExtraLinks(rng, anns))
}

// collidingASN returns an ASN other than as whose hash has the same top 16
// bits, so that the two share a home slot in every dictionary of up to 2^16
// slots.
func collidingASN(rng *rand.Rand, as bgp.ASN) bgp.ASN {
	for {
		if c := bgp.ASN(rng.Uint32()); c != as && dictHash(c)>>48 == dictHash(as)>>48 {
			return c
		}
	}
}

// TestGraphIndexMatchesOracle: the graph's flat dictionary answers Index with
// each AS's position in the sorted ASN list and -1 for an absent ASN — on
// random topologies extended with 4-byte ASNs, AS 0 on a path (in half of
// them), the largest ASN, and ASNs that share a home slot with a path AS and
// so are found by probing. The absent ASNs asked for are AS 0 when no path
// names it, the largest ASN when none does, and both neighbours of every
// present ASN.
func TestGraphIndexMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := range 50 {
		_, anns, orgs := randomTopology(t, rng)
		home := anns[rng.Intn(len(anns))].Path[0]
		extra := []bgp.ASN{collidingASN(rng, home), collidingASN(rng, home), 4_200_000_000 + bgp.ASN(rng.Intn(1000)), 65_536}
		if iter%2 == 0 {
			extra = append(extra, 0)
		}
		if iter%4 == 0 {
			extra = append(extra, math.MaxUint32)
		}
		rng.Shuffle(len(extra), func(i, j int) { extra[i], extra[j] = extra[j], extra[i] })
		for i, as := range extra {
			// Each extra AS upstream of a path, and half of them also in
			// the middle of one.
			a := anns[rng.Intn(len(anns))]
			anns = append(anns, bgp.Announcement{Prefix: a.Prefix, Path: append([]bgp.ASN{as}, a.Path...), Origin: a.Origin})
			if i%2 == 0 {
				a = anns[rng.Intn(len(anns))]
				path := slices.Concat([]bgp.ASN{home}, []bgp.ASN{as}, a.Path)
				anns = append(anns, bgp.Announcement{Prefix: a.Prefix, Path: path, Origin: a.Origin})
			}
		}
		g := mustGraph(t, anns, orgs, nil)

		present := map[bgp.ASN]bool{}
		for _, a := range anns {
			for _, as := range a.Path {
				present[as] = true
			}
		}
		var want []bgp.ASN
		for as := range present {
			want = append(want, as)
		}
		slices.Sort(want)
		if !slices.Equal(g.asns, want) {
			t.Fatalf("iter %d: ASes %v, want %v", iter, g.asns, want)
		}
		absent := []bgp.ASN{0, math.MaxUint32}
		for i, as := range want {
			if got := g.Index(as); got != i {
				t.Fatalf("iter %d: Index(%d) = %d, want %d", iter, as, got, i)
			}
			absent = append(absent, as-1, as+1)
		}
		for _, as := range absent {
			if got := g.Index(as); !present[as] && got != -1 {
				t.Fatalf("iter %d: Index(%d) = %d for an absent ASN, want -1", iter, as, got)
			}
		}
		probed := 0
		for s, e := range g.dict.slots {
			if e.idx >= 0 && int(dictHash(e.as)>>g.dict.shift) != s {
				probed++
			}
		}
		if probed < 2 {
			t.Fatalf("iter %d: %d ASes sit away from their home slot; the colliding ASNs should put at least 2 there", iter, probed)
		}
	}
}

// TestPackedKeyWidthBoundary: MaxASes ASes fit the packed sort keys' AS index
// fields and one more does not, so NewGraph refuses a table that large
// instead of aliasing two ASes in one key.
func TestPackedKeyWidthBoundary(t *testing.T) {
	const top = MaxASes - 1
	for _, w := range [][3]int{{top, top, top}, {top, 0, top}, {0, top, 0}, {1, 2, 3}} {
		if a, b, c := unpackASes(packASes(w[0], w[1], w[2])); [3]int{a, b, c} != w {
			t.Fatalf("packASes%v unpacks to (%d, %d, %d)", w, a, b, c)
		}
	}
	if err := packable(MaxASes); err != nil {
		t.Fatalf("packable(%d) = %v", MaxASes, err)
	}
	if packable(MaxASes+1) == nil {
		t.Fatalf("packable(%d) accepted more ASes than a packed key can index", MaxASes+1)
	}
}

// TestNaiveIndexAllocsConstant: NewNaiveIndex allocates the same few slices
// whatever the table size (run log, stamps, offsets, prefixes and the index
// itself) — no per-AS slice, no map, no sort scratch.
func TestNaiveIndexAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const bound = 6
	base := randomValleyFreeAnns(rand.New(rand.NewSource(36)))
	g := mustGraph(t, base, nil, nil)
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

// TestNewGraphAllocsConstant: NewGraph allocates the same slices whatever the
// topology's size — no allocation per link or per AS — beyond its ASN→index
// dictionary. The dictionary's own doublings are measured by filling an
// identical one alone, as indexASes does, and subtracted; what is left must be
// one count of at most bound at 1× and at 8 ASN-disjoint copies of a random
// topology.
func TestNewGraphAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const bound = 19
	_, base, baseOrgs := randomTopology(t, rand.New(rand.NewSource(39)))
	baseExtra := randomExtraLinks(rand.New(rand.NewSource(40)), base)
	var counts []float64
	for _, copies := range []int{1, 8} {
		var anns []bgp.Announcement
		var orgs [][]bgp.ASN
		var extra [][2]bgp.ASN
		for c := range copies {
			shift := func(as bgp.ASN) bgp.ASN { return as + bgp.ASN(c)*100_000 }
			for _, a := range base {
				path := make([]bgp.ASN, len(a.Path))
				for i, as := range a.Path {
					path[i] = shift(as)
				}
				anns = append(anns, bgp.Announcement{Prefix: a.Prefix, Path: path, Origin: shift(a.Origin)})
			}
			for _, members := range baseOrgs {
				org := make([]bgp.ASN, len(members))
				for i, as := range members {
					org[i] = shift(as)
				}
				orgs = append(orgs, org)
			}
			for _, l := range baseExtra {
				extra = append(extra, [2]bgp.ASN{shift(l[0]), shift(l[1])})
			}
		}
		graph := testing.AllocsPerRun(5, func() {
			if _, err := NewGraph(anns, orgs, extra); err != nil {
				t.Fatal(err)
			}
		})
		index := testing.AllocsPerRun(5, func() {
			d := newASDict(minDictBits)
			for _, a := range anns {
				for _, as := range a.Path {
					d.intern(as)
				}
			}
		})
		counts = append(counts, graph-index)
	}
	t.Logf("NewGraph allocations beyond its dictionary at 1× and 8× the topology: %v", counts)
	if counts[0] != counts[1] || counts[0] > bound {
		t.Fatalf("NewGraph allocates %v times beyond its dictionary at 1× and 8× the topology, want one count of at most %d", counts, bound)
	}
}
