// Package astopo builds the AS-level topology from BGP announcements and
// implements the paper's three approaches for inferring the valid IP address
// space of each AS:
//
//   - Naive: an AS is a valid source for a prefix iff it appears on some
//     AS path of an announcement of that prefix (§3.2).
//   - Customer Cone: valid iff the origin lies in the AS's customer cone,
//     computed over inferred provider→customer links (CAIDA-style).
//   - Full Cone: valid iff the origin lies in the AS's transitive closure on
//     the directed AS graph in which every adjacent AS-path pair (L, R)
//     contributes an edge L→R ("the left AS is upstream of the right AS").
//     The graph may contain cycles; the closure is computed over the SCC
//     condensation.
//
// Both cone methods optionally merge multi-AS organizations by adding a full
// mesh of bidirectional links between ASes of the same organization.
package astopo

import (
	"fmt"
	"slices"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
)

// Graph is the directed AS-level graph with its inferred link
// relationships. Nodes are dense indices in ASN order; use Index and ASN to
// translate. An edge u→v means u was observed immediately left of v on an AS
// path (u upstream of v), or u and v are linked by an organization or an
// extra link. A Graph is built whole by NewGraph and never changes.
type Graph struct {
	asns []bgp.ASN // dense index -> ASN, sorted ascending
	dict asDict    // ASN -> dense index
	down [][]int32 // downstream neighbours (u -> v), ascending; one backing array
	deg  []int     // distinct path links per AS

	// The link table: every undirected link once, by (lower, higher) index.
	// The links of lower index u are linkOff[u]..linkOff[u+1]; linkHi holds
	// their higher ends, ascending, and rels their relationships from the
	// lower end's perspective.
	linkOff []int32
	linkHi  []int32
	rels    []Rel
}

// asIndexBits is the width of one AS index in a packed sort key. Three of them
// fill a uint64 (packASes), so a graph may index at most MaxASes ASes.
const asIndexBits = 21

// MaxASes is the largest AS count a graph's packed sort keys can index.
const MaxASes = 1 << asIndexBits

// packASes packs three AS indexes into one sort key: a in bits 42–62, b in
// bits 21–41 and c in bits 0–20, so that keys sort by a, then b, then c.
func packASes[I int | int32](a, b, c I) uint64 {
	return uint64(a)<<(2*asIndexBits) | uint64(b)<<asIndexBits | uint64(c)
}

// unpackASes is packASes' inverse.
func unpackASes(w uint64) (a, b, c int) {
	const mask = MaxASes - 1
	return int(w >> (2 * asIndexBits)), int(w >> asIndexBits & mask), int(w & mask)
}

// packable refuses an AS count past MaxASes: beyond it two ASes would alias
// in a packed key.
func packable(n int) error {
	if n > MaxASes {
		return fmt.Errorf("astopo: %d ASes exceed the %d a packed sort key can index", n, MaxASes)
	}
	return nil
}

// Rel is the business relationship of an undirected AS link.
type Rel int8

// Link relationships, from the perspective of the link's first AS; see
// Relationship.
const (
	RelUnknown Rel = iota
	RelPeer        // settlement-free peering or sibling
	RelC2P         // first AS is a customer of the second
	RelP2C         // first AS is a provider of the second
)

func (r Rel) String() string {
	switch r {
	case RelPeer:
		return "peer"
	case RelC2P:
		return "c2p"
	case RelP2C:
		return "p2c"
	default:
		return "unknown"
	}
}

// reversed is r seen from the link's other end.
func (r Rel) reversed() Rel {
	switch r {
	case RelC2P:
		return RelP2C
	case RelP2C:
		return RelC2P
	}
	return r
}

// Where a pair was seen, in the low bits of its edge and link words
// (packASes' fields shifted up by srcBits); an extra link's words carry
// neither bit.
const (
	fromPath = 1 << iota
	fromOrg
	srcBits = 2
)

// NewGraph builds the AS graph from the announcements and annotates its links
// in one call:
//
//   - Adjacent AS-path pairs inside AS_SEQUENCEs produce edges (AS_SETs are
//     skipped by the RIB digestion already); Degree counts these path links.
//   - Every pair of ASes of one organization is linked both ways and is a
//     sibling (RelPeer) link, whatever the paths say.
//   - Every extra link (e.g. WHOIS-discovered) is linked both ways; one no
//     path shows keeps RelUnknown.
//   - Every other path link gets the relationship annotate infers.
//
// Organization members and extra-link ends that no path names are ignored.
// More than MaxASes ASes is an error.
func NewGraph(anns []bgp.Announcement, orgs [][]bgp.ASN, extraLinks [][2]bgp.ASN) (*Graph, error) {
	g, hops, err := indexASes(anns)
	if err != nil {
		return nil, err
	}
	// buf and tmp hold every packed word set below and are each sort's two
	// halves: the directed edges, two words per interior hop (transit
	// neighbours), one per hop (export triples, origins per link).
	edgeWords, interior := len(hops)+2*len(extraLinks), 0
	for _, members := range orgs {
		edgeWords += len(members) * (len(members) - 1)
	}
	for _, a := range anns {
		interior += max(len(a.Path)-2, 0)
	}
	buf := make([]uint64, 0, max(edgeWords, 2*interior))
	tmp := make([]uint64, cap(buf))

	eachPath(anns, hops, func(p []int32) {
		for i := 1; i < len(p); i++ {
			if p[i-1] != p[i] {
				buf = append(buf, packASes(0, p[i-1], p[i])<<srcBits|fromPath)
			}
		}
	})
	both := func(a, b bgp.ASN, src uint64) {
		if u, v := g.Index(a), g.Index(b); u >= 0 && v >= 0 && u != v {
			buf = append(buf, packASes(0, u, v)<<srcBits|src, packASes(0, v, u)<<srcBits|src)
		}
	}
	for _, members := range orgs {
		for i := range members {
			for _, b := range members[i+1:] {
				both(members[i], b, fromOrg)
			}
		}
	}
	for _, l := range extraLinks {
		both(l[0], l[1], 0)
	}
	g.buildEdges(buf, tmp)
	g.annotate(anns, hops, buf, tmp)
	return g, nil
}

// indexASes numbers every AS on a path in ASN order and resolves each path
// hop to its index once, into one slab read by eachPath. The graph's
// dictionary numbers the ASes as the paths name them; ranking them in ASN
// order then rewrites its slots and the hops in place.
func indexASes(anns []bgp.Announcement) (*Graph, []int32, error) {
	n := 0
	for _, a := range anns {
		n += len(a.Path)
	}
	g := &Graph{dict: newASDict(minDictBits)}
	hops := make([]int32, 0, n)
	for _, a := range anns {
		for _, as := range a.Path {
			hops = append(hops, g.dict.intern(as))
		}
	}
	if err := packable(g.dict.n); err != nil {
		return nil, nil, err
	}
	// The loop numbered ASes in first-seen order; rank renumbers them.
	g.asns = make([]bgp.ASN, g.dict.n)
	for _, e := range g.dict.slots {
		if e.idx >= 0 {
			g.asns[e.idx] = e.as
		}
	}
	slices.Sort(g.asns)
	rank := make([]int32, len(g.asns))
	for i, as := range g.asns {
		s := g.dict.slot(as)
		rank[g.dict.slots[s].idx] = int32(i)
		g.dict.slots[s].idx = int32(i)
	}
	for j, i := range hops {
		hops[j] = rank[i]
	}
	return g, hops, nil
}

// eachPath calls fn with each announcement's path as dense AS indexes,
// sliced from hops.
func eachPath(anns []bgp.Announcement, hops []int32, fn func(p []int32)) {
	at := 0
	for _, a := range anns {
		n := len(a.Path)
		fn(hops[at : at+n : at+n])
		at += n
	}
}

// mergeRuns sorts words and folds each run of equal pairs (the word above its
// source bits) into one word carrying every source the run saw.
func mergeRuns(words, tmp []uint64) []uint64 {
	netx.RadixSort(words, tmp)
	out := words[:0]
	for _, w := range words {
		if k := len(out) - 1; k >= 0 && out[k]>>srcBits == w>>srcBits {
			out[k] |= w
		} else {
			out = append(out, w)
		}
	}
	return out
}

// buildEdges lays out the directed edge words as down and the link table,
// and counts each AS's path links.
func (g *Graph) buildEdges(words, tmp []uint64) {
	n := len(g.asns)
	words = mergeRuns(words, tmp)
	flat := make([]int32, len(words))
	g.down = make([][]int32, n)
	start := 0
	for e, w := range words {
		_, u, v := unpackASes(w >> srcBits)
		flat[e] = int32(v)
		if len(g.down[u]) == 0 {
			start = e // u's run of edges begins
		}
		g.down[u] = flat[start : e+1 : e+1]
		// The edge is now its undirected link's word, lower index first.
		words[e] = packASes(0, min(u, v), max(u, v))<<srcBits | w&(1<<srcBits-1)
	}
	words = mergeRuns(words, tmp)
	g.deg = make([]int, n)
	g.linkOff = make([]int32, n+1)
	g.linkHi = make([]int32, len(words))
	g.rels = make([]Rel, len(words))
	for l, w := range words {
		_, u, v := unpackASes(w >> srcBits)
		g.linkOff[u+1]++
		g.linkHi[l] = int32(v)
		if w&fromPath != 0 {
			g.deg[u]++
			g.deg[v]++
		}
		if w&fromOrg != 0 {
			g.rels[l] = RelPeer
		}
	}
	for u := range n {
		g.linkOff[u+1] += g.linkOff[u]
	}
}

// NumASes returns the number of distinct ASes in the graph.
func (g *Graph) NumASes() int { return len(g.asns) }

// Index returns the dense index of as, or -1 if absent.
func (g *Graph) Index(as bgp.ASN) int { return int(g.dict.get(as)) }

// HasEdge reports whether the directed edge u→v exists (dense indices).
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := slices.BinarySearch(g.down[u], int32(v))
	return ok
}

// link returns the link table position of the link between u and v, or -1
// when they are not linked.
func (g *Graph) link(u, v int) int {
	if u > v {
		u, v = v, u
	}
	lo := int(g.linkOff[u])
	if i, ok := slices.BinarySearch(g.linkHi[lo:g.linkOff[u+1]], int32(v)); ok {
		return lo + i
	}
	return -1
}

// Relationship returns the relationship of the link between dense indices u
// and v, from u's perspective: RelC2P means u is a customer of v. Unlinked
// ASes have RelUnknown.
func (g *Graph) Relationship(u, v int) Rel {
	l := g.link(u, v)
	if l < 0 {
		return RelUnknown
	}
	if u > v {
		return g.rels[l].reversed()
	}
	return g.rels[l]
}
