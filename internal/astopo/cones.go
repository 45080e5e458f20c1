package astopo

import (
	"sort"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
)

// Method selects one of the paper's three valid-space inference approaches.
type Method int

// The three approaches of §3.2, ordered conservative-to-liberal in the
// amount of address space they grant each AS.
const (
	Naive Method = iota
	CustomerCone
	FullCone
)

func (m Method) String() string {
	switch m {
	case Naive:
		return "naive"
	case CustomerCone:
		return "customer-cone"
	case FullCone:
		return "full-cone"
	default:
		return "unknown"
	}
}

// Closure holds per-AS reachability over a directed AS graph, computed over
// the SCC condensation with shared bitsets. It answers "is origin inside
// the cone of AS u" in O(1).
type Closure struct {
	g     *Graph
	comp  []int // AS index -> component id
	nComp int
	reach []*netx.Bitset // per component, bits are component ids
	size  []int          // per component: number of ASes in all reachable comps
	cmemb []int          // per component: number of member ASes
}

// newClosure computes the transitive closure of adj (indexed like g).
// Component ids are in reverse topological order: every edge goes from a
// higher id to a lower id, so processing 0..n-1 sees successors first.
func newClosure(g *Graph, adj [][]int32) *Closure {
	comp, n := tarjanSCC(adj)
	return closureFrom(g, comp, n, condense(adj, comp, n), 1)
}

// Contains reports whether the AS at dense index origin is inside the cone
// of the AS at dense index u (every AS is inside its own cone).
func (c *Closure) Contains(u, origin int) bool {
	return c.reach[c.comp[u]].Test(c.comp[origin])
}

// ConeSize returns the number of ASes in u's cone, including u itself.
func (c *Closure) ConeSize(u int) int { return c.size[c.comp[u]] }

// WeightedSizes returns, for every AS index, the sum of w over the ASes in
// its cone. w is indexed by AS index. This is how per-AS valid address
// space is sized when per-origin spaces are disjoint (see ValidSpaceSizer).
func (c *Closure) WeightedSizes(w []uint64) []uint64 {
	compW := make([]uint64, c.nComp)
	for as, ci := range c.comp {
		compW[ci] += w[as]
	}
	compTotal := make([]uint64, c.nComp)
	for ci := 0; ci < c.nComp; ci++ {
		var total uint64
		c.reach[ci].ForEach(func(i int) { total += compW[i] })
		compTotal[ci] = total
	}
	out := make([]uint64, len(c.comp))
	for as, ci := range c.comp {
		out[as] = compTotal[ci]
	}
	return out
}

// ConeMembers returns the dense indices of all ASes in u's cone, sorted.
func (c *Closure) ConeMembers(u int) []int {
	var out []int
	target := c.reach[c.comp[u]]
	for as, ci := range c.comp {
		if target.Test(ci) {
			out = append(out, as)
		}
	}
	sort.Ints(out)
	return out
}

// ValidOriginSet materializes u's cone as a bitset over AS indices, used by
// the classifier for O(1) per-flow validity checks.
func (c *Closure) ValidOriginSet(u int) *netx.Bitset {
	b := netx.NewBitset(len(c.comp))
	target := c.reach[c.comp[u]]
	for as, ci := range c.comp {
		if target.Test(ci) {
			b.Set(as)
		}
	}
	return b
}

// FullConeClosure computes the Full Cone: transitive closure over the raw
// directed AS graph (including any org-mesh or WHOIS links added).
func (g *Graph) FullConeClosure() *Closure { return newClosure(g, g.down) }

// BoundedCone returns the ASes reachable from u (dense index) within at
// most depth directed hops, u included — the paper's future-work idea of
// trading the full transitive closure's false-negative rate for tighter
// per-AS valid spaces. Depth <= 0 yields {u}.
func (g *Graph) BoundedCone(u, depth int) *netx.Bitset {
	out := netx.NewBitset(len(g.asns))
	out.Set(u)
	frontier := []int32{int32(u)}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []int32
		for _, x := range frontier {
			for _, v := range g.down[x] {
				if !out.Test(int(v)) {
					out.Set(int(v))
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return out
}

// CustomerConeClosure computes the Customer Cone: reachability over
// inferred provider→customer links only. InferRelationships (or AddOrgMesh
// for sibling links, which are treated like peering and excluded) must run
// first. Sibling/org links can optionally be traversed by passing
// includeSiblings=true, which models the paper's org-merged customer cone.
//
// A provider→customer edge is traversed only if it was also observed in
// that direction on some AS path (it exists in the directed graph); this
// makes the Customer Cone structurally contained in the Full Cone, the
// §3.4 property the paper verified empirically.
func (g *Graph) CustomerConeClosure(includeSiblings bool) *Closure {
	adj := make([][]int32, len(g.asns))
	addP2C := func(prov, cust int32) {
		if g.HasEdge(int(prov), int(cust)) {
			adj[prov] = append(adj[prov], cust)
		}
	}
	for k, r := range g.rels {
		u, v := k[0], k[1]
		switch r {
		case RelP2C:
			addP2C(u, v)
		case RelC2P:
			addP2C(v, u)
		case RelPeer:
			if includeSiblings {
				addP2C(u, v)
				addP2C(v, u)
			}
		}
	}
	return newClosure(g, adj)
}

// CustomerConeWithOrgs computes the customer cone where only the given
// organizations' internal links are traversable in both directions, in
// addition to p2c links. This matches the paper's "Customer Cone
// (multi-AS orgs)" variant: orgs share their joint cone, but unrelated
// peering links stay excluded.
func (g *Graph) CustomerConeWithOrgs(orgs [][]bgp.ASN) *Closure {
	adj := make([][]int32, len(g.asns))
	addP2C := func(prov, cust int32) {
		if g.HasEdge(int(prov), int(cust)) {
			adj[prov] = append(adj[prov], cust)
		}
	}
	for k, r := range g.rels {
		u, v := k[0], k[1]
		switch r {
		case RelP2C:
			addP2C(u, v)
		case RelC2P:
			addP2C(v, u)
		}
	}
	for _, members := range orgs {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				u, v := g.Index(members[i]), g.Index(members[j])
				if u < 0 || v < 0 {
					continue
				}
				adj[u] = append(adj[u], int32(v))
				adj[v] = append(adj[v], int32(u))
			}
		}
	}
	return newClosure(g, adj)
}

// OriginSpaces returns, indexed by dense AS index, each AS's own announced
// address space (union of the prefixes it originates).
func OriginSpaces(g *Graph, anns []bgp.Announcement) []netx.IntervalSet {
	perOrigin := make([][]netx.Prefix, g.NumASes())
	for _, a := range anns {
		if i := g.Index(a.Origin); i >= 0 {
			perOrigin[i] = append(perOrigin[i], a.Prefix)
		}
	}
	out := make([]netx.IntervalSet, g.NumASes())
	for i, ps := range perOrigin {
		if len(ps) > 0 {
			out[i] = netx.IntervalSetOfPrefixes(ps...)
		}
	}
	return out
}

// OriginSpaceWeights returns per-AS /24-equivalent sizes of origin spaces.
func OriginSpaceWeights(spaces []netx.IntervalSet) []uint64 {
	w := make([]uint64, len(spaces))
	for i, s := range spaces {
		w[i] = s.Slash24Equivalents()
	}
	return w
}

// ExactValidSpace computes the exact union of the origin spaces of the ASes
// in u's cone. Linear in the cone size; intended for members and for
// validating the weighted approximation, not for all-AS sweeps.
func (c *Closure) ExactValidSpace(u int, spaces []netx.IntervalSet) netx.IntervalSet {
	var ivs []netx.Interval
	target := c.reach[c.comp[u]]
	for as, ci := range c.comp {
		if target.Test(ci) {
			ivs = append(ivs, spaces[as].Intervals()...)
		}
	}
	return netx.NewIntervalSet(ivs...)
}

// NaiveIndex implements the Naive approach: per AS, the set of prefixes on
// whose announcement paths the AS appears.
type NaiveIndex struct {
	g        *Graph
	prefixes [][]netx.Prefix // per AS index, deduped
}

// NewNaiveIndex builds the per-AS naive prefix sets from announcements.
func NewNaiveIndex(g *Graph, anns []bgp.Announcement) *NaiveIndex {
	type seenKey struct {
		as int32
		p  netx.Prefix
	}
	seen := make(map[seenKey]struct{})
	n := &NaiveIndex{g: g, prefixes: make([][]netx.Prefix, g.NumASes())}
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
			n.prefixes[i] = append(n.prefixes[i], a.Prefix)
		}
	}
	return n
}

// ValidSpace returns the exact valid address space of the AS at index u.
func (n *NaiveIndex) ValidSpace(u int) netx.IntervalSet {
	return netx.IntervalSetOfPrefixes(n.prefixes[u]...)
}

// NumPrefixes returns the number of distinct prefixes AS u is valid for.
func (n *NaiveIndex) NumPrefixes(u int) int { return len(n.prefixes[u]) }

// ValidPrefixes returns the distinct announced prefixes AS u is naively
// valid for. The slice is owned by the index and must not be modified; the
// classifier maps each prefix to its origins-table entry index to express
// per-member validity as a bitset rather than a per-member LPM.
func (n *NaiveIndex) ValidPrefixes(u int) []netx.Prefix { return n.prefixes[u] }

// Sizes returns, indexed by AS index, the /24-equivalent size of each AS's
// naive valid space (exact; total work is bounded by the sum of AS path
// lengths over all announcements).
func (n *NaiveIndex) Sizes() []uint64 {
	out := make([]uint64, len(n.prefixes))
	for i := range n.prefixes {
		out[i] = n.ValidSpace(i).Slash24Equivalents()
	}
	return out
}
