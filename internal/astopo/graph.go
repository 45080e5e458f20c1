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
	"sort"

	"spoofscope/internal/bgp"
)

// Graph is the directed AS-level graph. Nodes are dense indices; use Index
// and ASN to translate. An edge u→v means u was observed immediately left of
// v on an AS path (u upstream of v).
type Graph struct {
	asns []bgp.ASN        // dense index -> ASN, sorted ascending
	idx  map[bgp.ASN]int  // ASN -> dense index
	down [][]int32        // adjacency: downstream neighbours (u -> v)
	up   [][]int32        // reverse adjacency
	deg  []int            // undirected degree (distinct neighbours)
	rels map[[2]int32]Rel // inferred relationship per directed pair (u<v key)
}

// asIndexBits is the width of one AS index in a packed sort key. Three of them
// fill a uint64 (packASes; InferRelationships' (u, v, origin) words), so a
// graph may index at most MaxASes ASes.
const asIndexBits = 21

// MaxASes is the largest AS count a graph's packed sort keys can index.
const MaxASes = 1 << asIndexBits

// packASes packs three AS indexes into one sort key: a in bits 42–62, b in
// bits 21–41 and c in bits 0–20, so that keys sort by a, then b, then c.
func packASes(a, b, c int) uint64 {
	return uint64(a)<<(2*asIndexBits) | uint64(b)<<asIndexBits | uint64(c)
}

// unpackASes is packASes' inverse.
func unpackASes(w uint64) (a, b, c int) {
	const mask = MaxASes - 1
	return int(w >> (2 * asIndexBits)), int(w >> asIndexBits & mask), int(w & mask)
}

// checkPackable panics when n ASes would overflow a packed key's AS index
// field: past MaxASes the build fails loudly rather than aliasing two ASes.
// A caller whose graph comes from outside input checks NumASes against
// MaxASes first and reports an error, as core's pipeline build does.
func checkPackable(n int) {
	if n > MaxASes {
		panic(fmt.Sprintf("astopo: %d ASes exceed the %d a packed sort key can index", n, MaxASes))
	}
}

// Rel is the business relationship of an undirected AS link.
type Rel int8

// Link relationships. RelC2P{A,B} semantics are expressed from the
// perspective of the key's lower-index AS; see Relationship.
const (
	RelUnknown Rel = iota
	RelPeer        // settlement-free peering or sibling
	RelC2P         // first AS of the key is a customer of the second
	RelP2C         // first AS of the key is a provider of the second
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

// NewGraph builds the directed AS graph from announcements. Adjacent
// AS-path pairs inside AS_SEQUENCEs produce edges; AS_SETs are skipped by
// the RIB digestion already.
func NewGraph(anns []bgp.Announcement) *Graph {
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
	g := &Graph{
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

// NumASes returns the number of distinct ASes in the graph.
func (g *Graph) NumASes() int { return len(g.asns) }

// ASNs returns all ASes, sorted ascending. The slice must not be modified.
func (g *Graph) ASNs() []bgp.ASN { return g.asns }

// Index returns the dense index of as, or -1 if absent.
func (g *Graph) Index(as bgp.ASN) int {
	if i, ok := g.idx[as]; ok {
		return i
	}
	return -1
}

// ASN returns the ASN at dense index i.
func (g *Graph) ASN(i int) bgp.ASN { return g.asns[i] }

// Degree returns the undirected degree of the AS at index i.
func (g *Graph) Degree(i int) int { return g.deg[i] }

// HasEdge reports whether the directed edge u→v exists (dense indices).
func (g *Graph) HasEdge(u, v int) bool {
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
func (g *Graph) AddLink(u, v int) bool {
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

// AddLinkASN is AddLink keyed by ASN; unknown ASNs are ignored.
func (g *Graph) AddLinkASN(a, b bgp.ASN) bool {
	return g.AddLink(g.Index(a), g.Index(b))
}

// AddOrgMesh adds a full mesh of bidirectional links between the ASes of
// each organization, and records them as sibling (peer) relationships.
// It returns the number of links added.
func (g *Graph) AddOrgMesh(orgs [][]bgp.ASN) int {
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

func (g *Graph) setRel(u, v int, r Rel) {
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
func (g *Graph) Relationship(u, v int) Rel {
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

// Providers returns the dense indices of u's inferred providers.
func (g *Graph) Providers(u int) []int {
	var out []int
	for _, v := range g.neighbours(u) {
		if g.Relationship(u, v) == RelC2P {
			out = append(out, v)
		}
	}
	return out
}

// Customers returns the dense indices of u's inferred customers.
func (g *Graph) Customers(u int) []int {
	var out []int
	for _, v := range g.neighbours(u) {
		if g.Relationship(u, v) == RelP2C {
			out = append(out, v)
		}
	}
	return out
}

// neighbours returns the distinct undirected neighbours of u.
func (g *Graph) neighbours(u int) []int {
	seen := make(map[int32]struct{}, len(g.down[u])+len(g.up[u]))
	var out []int
	for _, v := range g.down[u] {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			out = append(out, int(v))
		}
	}
	for _, v := range g.up[u] {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			out = append(out, int(v))
		}
	}
	sort.Ints(out)
	return out
}
