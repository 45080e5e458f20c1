package astopo

import (
	"slices"
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
// the cone of AS u" in O(1) for every pair of ASes, so it costs components²
// bits: Figure 2 and the §3.4 containment check, which size every AS's cone,
// build one; the classifier, which reads only its members' cones, walks them
// (Adjacency.Cone).
type Closure struct {
	comp  []int // AS index -> component id
	nComp int
	reach []*netx.Bitset // per component, bits are component ids
	size  []int          // per component: number of ASes in all reachable comps
	cmemb []int          // per component: number of member ASes
}

// newClosure computes the transitive closure of adj (indexed like the
// graph). Component ids are in reverse topological order: every edge goes
// from a higher id to a lower id, so processing 0..n-1 sees successors first.
func newClosure(adj [][]int32) *Closure {
	comp, n := tarjanSCC(adj)
	cond := condense(adj, comp, n)
	c := &Closure{comp: comp, nComp: n, reach: make([]*netx.Bitset, n), size: make([]int, n), cmemb: make([]int, n)}
	for _, ci := range comp {
		c.cmemb[ci]++
	}
	for ci := 0; ci < n; ci++ {
		b := netx.NewBitset(n)
		b.Set(ci)
		for _, sc := range cond[ci] {
			b.Or(c.reach[sc])
		}
		c.reach[ci] = b
		total := 0
		b.ForEach(func(i int) { total += c.cmemb[i] })
		c.size[ci] = total
	}
	return c
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

// ValidOriginSet materializes u's cone as a bitset over AS indices.
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

// Adjacency is a directed AS adjacency over a graph's dense indices: a[u]
// lists the ASes one hop below u. A cone is what a walk down it reaches.
type Adjacency [][]int32

// Cone returns the ASes reachable from u (dense index) within at most depth
// hops down a, u included, as a bitset over AS indices: one breadth-first
// walk. Depth <= 0 yields {u}; math.MaxInt walks the whole cone.
func (a Adjacency) Cone(u, depth int) *netx.Bitset {
	out := netx.NewBitset(len(a))
	out.Set(u)
	queue := []int32{int32(u)}
	for head, d := 0, 0; d < depth && head < len(queue); d++ {
		for end := len(queue); head < end; head++ {
			for _, v := range a[queue[head]] {
				if !out.Test(int(v)) {
					out.Set(int(v))
					queue = append(queue, v)
				}
			}
		}
	}
	return out
}

// FullConeClosure computes the Full Cone: transitive closure over the raw
// directed AS graph (including its organization and extra links).
func (g *Graph) FullConeClosure() *Closure { return newClosure(g.down) }

// BoundedCone returns u's Full Cone cut at depth directed hops: the paper's
// future-work idea of trading the full transitive closure's false-negative
// rate for tighter per-AS valid spaces. It is Adjacency.Cone over the
// graph's own edges, so depth <= 0 yields {u} and math.MaxInt the whole Full
// Cone.
func (g *Graph) BoundedCone(u, depth int) *netx.Bitset { return Adjacency(g.down).Cone(u, depth) }

// CustomerAdjacency returns the adjacency the Customer Cone walks: every
// directed edge u→v of the graph whose inferred relationship makes u v's
// provider, plus, when orgs is non-nil, each organization's internal links
// in both directions. A provider→customer edge counts only if it was also
// observed in that direction on some AS path (it exists in the directed
// graph); this makes the Customer Cone structurally contained in the Full
// Cone, the §3.4 property the paper verified empirically. The org links are
// not checked against the graph: on a graph built with orgs they are its
// edges anyway, and Figure 2 walks them on a graph built without.
func (g *Graph) CustomerAdjacency(orgs [][]bgp.ASN) Adjacency {
	adj := make(Adjacency, len(g.asns))
	for u, vs := range g.down {
		for _, v := range vs {
			if g.Relationship(u, int(v)) == RelP2C {
				adj[u] = append(adj[u], v)
			}
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
	return adj
}

// CustomerConeClosure computes the Customer Cone: reachability over
// inferred provider→customer links only (sibling links are treated like
// peering and excluded). CustomerConeWithOrgs is the paper's org-merged
// variant.
func (g *Graph) CustomerConeClosure() *Closure { return g.CustomerConeWithOrgs(nil) }

// CustomerConeWithOrgs computes the customer cone where only the given
// organizations' internal links are traversable in both directions, in
// addition to p2c links (CustomerAdjacency). This matches the paper's
// "Customer Cone (multi-AS orgs)" variant: orgs share their joint cone, but
// unrelated peering links stay excluded.
func (g *Graph) CustomerConeWithOrgs(orgs [][]bgp.ASN) *Closure {
	return newClosure(g.CustomerAdjacency(orgs))
}

// ConeClosures returns FullConeClosure and CustomerConeWithOrgs(orgs). The
// pipeline builds no closure: it walks its members' cones. The function and
// its signature stay for the repository benchmark, whose
// astopo.cone_closures_ms line calls it (benchmark/layers.go) until that
// line is retargeted at the member walk; workers is unused.
func (g *Graph) ConeClosures(orgs [][]bgp.ASN, workers int) (full, cc *Closure) {
	return g.FullConeClosure(), g.CustomerConeWithOrgs(orgs)
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
// whose announcement paths the AS appears. The sets are one CSR layout: AS u's
// prefixes are flat[off[u]:off[u+1]], distinct and in prefix order.
type NaiveIndex struct {
	off  []int32
	flat []netx.Prefix
}

// Naive sort keys pack one (AS, prefix) hop into a uint64: the AS index in
// bits 38–58 (asIndexBits wide), the prefix address in bits 6–37 and its
// length (0–32) in bits 0–5, so that keys sort by AS and then in prefix order.
const (
	naiveBitsWidth = 6
	naiveASShift   = 32 + naiveBitsWidth
)

// NewNaiveIndex builds the per-AS naive prefix sets from announcements: one
// key per (AS, prefix) hop of an indexed AS, radix-sorted, adjacent
// duplicates dropped, and each AS's run laid out in flat. Path ASes the graph
// does not index are skipped.
//
// The announcements of one prefix usually arrive together (a table dump
// record lists every path of its prefix), and their paths share most ASes.
// So each AS is stamped with the number of the run of equal prefixes it last
// made a key in, which drops a hop repeated within a run before it becomes a
// key; the sort drops the rest, so the result does not depend on the order.
func NewNaiveIndex(g *Graph, anns []bgp.Announcement) *NaiveIndex {
	nAS := g.NumASes()
	hops := 0
	for _, a := range anns {
		hops += len(a.Path)
	}
	keys := make([]uint64, 0, hops)
	stamp := make([]int32, nAS) // run number of the AS's last key; runs count from 1
	run := int32(0)
	for j, a := range anns {
		if j == 0 || a.Prefix != anns[j-1].Prefix {
			run++
		}
		p := uint64(a.Prefix.Addr)<<naiveBitsWidth | uint64(a.Prefix.Bits)
		for _, as := range a.Path {
			if i := g.Index(as); i >= 0 && stamp[i] != run {
				stamp[i] = run
				keys = append(keys, uint64(i)<<naiveASShift|p)
			}
		}
	}
	netx.RadixSort(keys, make([]uint64, len(keys)))
	keys = slices.Compact(keys)
	n := &NaiveIndex{off: make([]int32, nAS+1), flat: make([]netx.Prefix, len(keys))}
	for j, k := range keys {
		n.off[k>>naiveASShift+1]++
		n.flat[j] = netx.Prefix{Addr: netx.Addr(k >> naiveBitsWidth), Bits: uint8(k & (1<<naiveBitsWidth - 1))}
	}
	for u := range nAS {
		n.off[u+1] += n.off[u]
	}
	return n
}

// ValidSpace returns the exact valid address space of the AS at index u.
func (n *NaiveIndex) ValidSpace(u int) netx.IntervalSet {
	return netx.IntervalSetOfPrefixes(n.ValidPrefixes(u)...)
}

// NumPrefixes returns the number of distinct prefixes AS u is valid for.
func (n *NaiveIndex) NumPrefixes(u int) int { return int(n.off[u+1] - n.off[u]) }

// ValidPrefixes returns the distinct announced prefixes AS u is naively
// valid for, in prefix order. The slice is owned by the index and must not be
// modified; the classifier maps each prefix to its origins-table entry index
// to express per-member validity as a bitset rather than a per-member LPM.
func (n *NaiveIndex) ValidPrefixes(u int) []netx.Prefix {
	return n.flat[n.off[u]:n.off[u+1]:n.off[u+1]]
}

// Sizes returns, indexed by AS index, the /24-equivalent size of each AS's
// naive valid space (exact; total work is bounded by the sum of AS path
// lengths over all announcements).
func (n *NaiveIndex) Sizes() []uint64 {
	out := make([]uint64, len(n.off)-1)
	for i := range out {
		out[i] = n.ValidSpace(i).Slash24Equivalents()
	}
	return out
}
