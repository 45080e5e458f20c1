package astopo

import (
	"slices"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
)

// transitDegrees returns, per AS index, the number of distinct neighbours
// the AS has when it appears in the middle of a path (i.e. when it provides
// transit). Stubs have transit degree 0. Each such adjacency is one packed
// word (packASes: 0, middle AS, neighbour); sorted and deduplicated, an AS's
// words are its distinct transit neighbours. buf and tmp are the sort's two
// halves and must have room for two words per interior path hop.
func transitDegrees(anns []bgp.Announcement, hops []int32, n int, buf, tmp []uint64) []int {
	words := buf[:0]
	eachPath(anns, hops, func(p []int32) {
		for i := 1; i+1 < len(p); i++ {
			words = append(words, packASes(0, p[i], p[i-1]), packASes(0, p[i], p[i+1]))
		}
	})
	netx.RadixSort(words, tmp)
	out := make([]int, n)
	for _, w := range slices.Compact(words) {
		_, m, _ := unpackASes(w)
		out[m]++
	}
	return out
}

// peerDegreeRatio is the smaller-to-larger transit-degree ratio at which a
// summit link with no export evidence is tagged peering.
const peerDegreeRatio = 0.1

// linkEvidence is what the paths say about one link, from the perspective of
// its lower-index AS.
type linkEvidence struct {
	c2p, p2c int32    // positional votes
	top      int32    // occurrences adjacent to the path top
	nonFirst int32    // occurrences not in the leftmost path position
	total    int32    // occurrences; 0 for a link no path shows
	reached  [2]int32 // distinct origins reached via lower→higher, higher→lower
	ft       uint8    // full-table evidence: 1 lower is the customer, 2 higher is, 3 both look full
	judged   bool     // a path link that is not an organization link: inference annotates it
}

// export is one distinct export triple [x, u, v] of a path, as its two
// links.
type export struct {
	xu, uv  int32 // link table positions of x–u and u–v
	xHigher bool  // x is the higher-index end of x–u
	uLower  bool  // u is the lower-index end of u–v
}

// annotate annotates every path link that is not an organization link with
// a business relationship using a Gao-style iterative heuristic:
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
// bigger AS, so majority voting cannot detect them. Each round reads only the
// previous round's assignment.
//
// Organization links keep the RelPeer buildEdges gave them. buf and tmp are
// scratch with room for two words per interior hop and one per hop.
func (g *Graph) annotate(anns []bgp.Announcement, hops []int32, buf, tmp []uint64) {
	n := len(g.asns)
	td := transitDegrees(anns, hops, n, buf, tmp)
	ev := make([]linkEvidence, len(g.rels))

	// better reports whether AS a beats AS b as a path's top. Indexes are in
	// ASN order, so the lower index is the lower ASN.
	better := func(a, b int32) bool {
		if td[a] != td[b] {
			return td[a] > td[b]
		}
		if g.deg[a] != g.deg[b] {
			return g.deg[a] > g.deg[b]
		}
		return a < b
	}

	// Positional votes. The path reads collector-peer ... origin and the
	// announcement propagated right-to-left. Valley-freeness: right of the
	// top the announcement climbed customer→provider hops, so there p[i] is
	// a provider of p[i+1]; left of the top it descended provider→customer
	// hops, so there p[i] is a customer of p[i+1].
	origins := netx.NewBitset(n)
	eachPath(anns, hops, func(p []int32) {
		if len(p) < 2 {
			return
		}
		origins.Set(int(p[len(p)-1]))
		top := 0
		for i := 1; i < len(p); i++ {
			if better(p[i], p[top]) {
				top = i
			}
		}
		for i := 0; i+1 < len(p); i++ {
			u, v := p[i], p[i+1]
			if u == v {
				continue
			}
			e := &ev[g.link(int(u), int(v))]
			if c2p := i+1 <= top; c2p == (u < v) {
				e.c2p++
			} else {
				e.p2c++
			}
			if i == top || i+1 == top {
				e.top++
			}
			if i > 0 {
				e.nonFirst++
			}
			e.total++
		}
	})

	// Full-table evidence: the distinct origins reached via each directed
	// link, counted as runs of sorted (u, v, origin) words. A neighbour that
	// hands over routes toward a large share of all origins is handing over a
	// full table, which only providers do: if the origins reached via u→v
	// cover that share AND strongly dominate the reverse direction, u is v's
	// customer. Only links crossed lower→higher are judged.
	via := buf[:0]
	eachPath(anns, hops, func(p []int32) {
		for i := 0; i+1 < len(p); i++ {
			if p[i] != p[i+1] {
				via = append(via, packASes(p[i], p[i+1], p[len(p)-1]))
			}
		}
	})
	netx.RadixSort(via, tmp)
	via = slices.Compact(via)
	for i := 0; i < len(via); {
		j := i + 1
		for j < len(via) && via[j]>>asIndexBits == via[i]>>asIndexBits {
			j++
		}
		u, v, _ := unpackASes(via[i])
		e := &ev[g.link(u, v)]
		if u < v {
			e.reached[0] = int32(j - i)
		} else {
			e.reached[1] = int32(j - i)
		}
		i = j
	}
	ftThreshold := int32(max(origins.Count()/5, 8))
	for l := range ev {
		switch ruv, rvu := ev[l].reached[0], ev[l].reached[1]; {
		case ruv == 0:
		case ruv >= ftThreshold && ruv >= 4*rvu:
			ev[l].ft = 1 // higher handed lower the table: lower is the customer
		case rvu >= ftThreshold && rvu >= 4*ruv:
			ev[l].ft = 2
		case ruv >= ftThreshold && rvu >= ftThreshold:
			ev[l].ft = 3
		}
	}

	// Distinct export triples, deduplicated by sorting packed words.
	triples := buf[:0]
	eachPath(anns, hops, func(p []int32) {
		for i := 1; i+1 < len(p); i++ {
			if x, u, v := p[i-1], p[i], p[i+1]; u != v && x != u && x != v {
				triples = append(triples, packASes(x, u, v))
			}
		}
	})
	netx.RadixSort(triples, tmp)
	triples = slices.Compact(triples)
	exports := make([]export, len(triples))
	for i, w := range triples {
		x, u, v := unpackASes(w)
		exports[i] = export{xu: int32(g.link(x, u)), uv: int32(g.link(u, v)), xHigher: x > u, uLower: u < v}
	}

	// Bootstrap from votes. Organization links are the only ones annotated
	// so far; every other path link is judged.
	for l := range ev {
		e := &ev[l]
		e.judged = e.total > 0 && g.rels[l] == RelUnknown
		if e.judged {
			g.rels[l] = e.majority()
		}
	}

	// Iterate export-evidence refinement to a fixpoint. exported[l]: bit 0
	// = the lower AS exports the higher's routes (higher is lower's
	// customer); bit 1 = the reverse.
	exported := make([]uint8, len(ev))
	for range 10 {
		clear(exported)
		for _, x := range exports {
			// x customer of u? Then the export is permitted regardless of
			// the u-v relationship and proves nothing.
			r := g.rels[x.xu]
			if x.xHigher {
				r = r.reversed()
			}
			if r == RelC2P {
				continue
			}
			if x.uLower {
				exported[x.uv] |= 1
			} else {
				exported[x.uv] |= 2
			}
		}
		changed := false
		for u := range n {
			for l := g.linkOff[u]; l < g.linkOff[u+1]; l++ {
				e := &ev[l]
				if !e.judged {
					continue
				}
				tdu, tdv := td[u], td[g.linkHi[l]]
				ratio := 0.0
				if tdu > 0 && tdv > 0 {
					ratio = float64(min(tdu, tdv)) / float64(max(tdu, tdv))
				}
				var next Rel
				switch {
				case exported[l] == 1:
					next = RelP2C
				case exported[l] == 2:
					next = RelC2P
				case exported[l] == 3:
					next = RelPeer
				case e.ft == 1:
					next = RelC2P // lower-index AS received the full table
				case e.ft == 2:
					next = RelP2C
				case e.top == e.total && e.nonFirst > 0 && tdu > 0 && tdv > 0 && ratio >= peerDegreeRatio:
					// Only ever seen straddling path tops, between two
					// transit providers, with no export evidence, and
					// observed from a vantage deeper than the link itself:
					// the peering signature. Links seen exclusively leftmost
					// (a collector peer's direct view) stay with their
					// positional votes — misreading such a backup customer
					// link as peering would cut whole subtrees out of the
					// customer cone.
					next = RelPeer
				default:
					next = e.majority()
				}
				if g.rels[l] != next {
					g.rels[l] = next
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
}

// majority is the link's relationship by positional votes alone.
func (e *linkEvidence) majority() Rel {
	switch {
	case e.c2p > e.p2c:
		return RelC2P
	case e.p2c > e.c2p:
		return RelP2C
	}
	return RelPeer
}
