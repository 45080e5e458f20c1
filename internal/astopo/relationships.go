package astopo

import (
	"slices"
	"sort"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
)

// transitDegrees returns, per AS index, the number of distinct neighbours
// the AS has when it appears in the middle of a path (i.e. when it provides
// transit). Stubs have transit degree 0. Each such adjacency is one packed
// word (packASes: 0, middle AS, neighbour; widths checked by the caller);
// sorted and deduplicated, an AS's words are its distinct transit neighbours. tmp is the sort's other half and
// must have room for two words per interior path hop.
func (g *Graph) transitDegrees(anns []bgp.Announcement, tmp []uint64) []int {
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
// preserved. peerDegreeRatio defaults to 0.1 when 0 is passed.
func (g *Graph) InferRelationships(anns []bgp.Announcement, peerDegreeRatio float64) {
	checkPackable(len(g.asns))
	if peerDegreeRatio == 0 {
		peerDegreeRatio = 0.1
	}
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

// RelStats summarizes the inferred link mix.
type RelStats struct {
	C2P, Peer, Unknown int
}

// RelationshipStats counts links per relationship class (C2P counts
// customer-provider links in either orientation).
func (g *Graph) RelationshipStats() RelStats {
	var s RelStats
	for _, r := range g.rels {
		switch r {
		case RelC2P, RelP2C:
			s.C2P++
		case RelPeer:
			s.Peer++
		default:
			s.Unknown++
		}
	}
	return s
}

// Links returns all annotated undirected links as (lowIdx, highIdx, rel)
// triples sorted for determinism.
func (g *Graph) Links() [][3]int {
	out := make([][3]int, 0, len(g.rels))
	for k, r := range g.rels {
		out = append(out, [3]int{int(k[0]), int(k[1]), int(r)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
