package astopo

import (
	"math"
	"slices"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
)

// Adjacency is a directed AS adjacency over a graph's dense indices: a[u]
// lists the ASes one hop below u. A cone is what a walk down it reaches.
type Adjacency [][]int32

// Cone sets in out, which must be clear and hold len(a) bits, the ASes
// reachable from u (dense index) within at most depth hops down a, u
// included: one breadth-first walk. Depth <= 0 yields {u}; math.MaxInt walks
// the whole cone. The walk queues on queue's backing array and returns it,
// so one queue of capacity len(a) serves every walk of a caller and never
// grows.
func (a Adjacency) Cone(out *netx.Bitset, queue []int32, u, depth int) []int32 {
	out.Set(u)
	queue = append(queue[:0], int32(u))
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
	return queue
}

// BoundedCone walks u's Full Cone cut at depth directed hops into out: the
// paper's future-work idea of trading the full transitive closure's
// false-negative rate for tighter per-AS valid spaces. It is Adjacency.Cone
// over the graph's own edges, so depth <= 0 yields {u} and math.MaxInt the
// whole Full Cone.
func (g *Graph) BoundedCone(out *netx.Bitset, queue []int32, u, depth int) []int32 {
	return Adjacency(g.down).Cone(out, queue, u, depth)
}

// EachCone walks the whole cone of every AS of an n-AS graph with walk
// (Graph.BoundedCone for the Full Cone, a CustomerAdjacency's Cone for the
// Customer Cone) and hands fn each AS with its cone's dense indices, u
// first. Every walk runs on one queue and one scratch bitset, cleared
// through the queue, so the list fn gets is overwritten by the next walk.
// Figure 2 and the §3.4 containment check reduce each cone as they read it.
func EachCone(n int, walk func(out *netx.Bitset, queue []int32, u, depth int) []int32, fn func(u int, cone []int32)) {
	seen := netx.NewBitset(n)
	queue := make([]int32, 0, n)
	for u := range n {
		queue = walk(seen, queue, u, math.MaxInt)
		fn(u, queue)
		for _, v := range queue {
			seen.Clear(int(v))
		}
	}
}

// CustomerAdjacency returns the adjacency the Customer Cone walks: every
// directed edge u→v of the graph whose inferred relationship makes u v's
// provider, plus, when orgs is non-nil, each organization's internal links
// in both directions. Sibling links are treated like peering and excluded;
// with orgs the walk is the paper's "Customer Cone (multi-AS orgs)" variant,
// where an organization's ASes share their joint cone but unrelated peering
// links stay excluded. A provider→customer edge counts only if it was also
// observed in that direction on some AS path (it exists in the directed
// graph); this makes the Customer Cone structurally contained in the Full
// Cone, the §3.4 property the paper verified empirically. The org links are
// not checked against the graph: on a graph built with orgs they are its
// edges anyway, and Figure 2 walks them on a graph built without. Like the
// graph's own edges, the lists are sub-slices of one array: one pass counts
// each AS's links and a second lays them out.
func (g *Graph) CustomerAdjacency(orgs [][]bgp.ASN) Adjacency {
	eachLink := func(fn func(u, v int32)) {
		for u, vs := range g.down {
			for _, v := range vs {
				if g.Relationship(u, int(v)) == RelP2C {
					fn(int32(u), v)
				}
			}
		}
		for _, members := range orgs {
			for i := range members {
				for _, b := range members[i+1:] {
					if u, v := g.dict.get(members[i]), g.dict.get(b); u >= 0 && v >= 0 {
						fn(u, v)
						fn(v, u)
					}
				}
			}
		}
	}
	n := len(g.asns)
	off := make([]int32, n+1)
	eachLink(func(u, _ int32) { off[u+1]++ })
	for u := range n {
		off[u+1] += off[u]
	}
	flat := make([]int32, off[n])
	// The fill advances off[u] from the start of u's list to its end.
	eachLink(func(u, v int32) {
		flat[off[u]] = v
		off[u]++
	})
	adj := make(Adjacency, n)
	start := int32(0)
	for u := range n {
		adj[u] = flat[start:off[u]:off[u]]
		start = off[u]
	}
	return adj
}

// ConeClosures walks every AS's Full Cone and Customer Cone with orgs once
// and keeps nothing. It stays only for the repository benchmark's
// astopo.cone_closures_ms line (benchmark/layers.go) until a benchmark
// change retargets it (ROADMAP); workers is unused.
func (g *Graph) ConeClosures(orgs [][]bgp.ASN, workers int) {
	n := g.NumASes()
	EachCone(n, g.BoundedCone, func(int, []int32) {})
	EachCone(n, g.CustomerAdjacency(orgs).Cone, func(int, []int32) {})
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

// NaiveIndex implements the Naive approach: per AS, the set of prefixes on
// whose announcement paths the AS appears. The sets are one CSR layout: AS u's
// prefixes are flat[off[u]:off[u+1]], distinct and in prefix order. It serves
// the analyses over every AS — Figure 2's valid-space sizes and §3.4's cone
// containment (experiments.Figure2, experiments.ConeContainment). The
// classifier does not use it: core fills its members' naive rows from the
// RIB's own hop runs, and its tests keep this index as their oracle.
type NaiveIndex struct {
	off  []int32
	flat []netx.Prefix
}

// NewNaiveIndex builds the per-AS naive prefix sets from announcements in
// prefix order, the order bgp.RIB.Announcements returns them in; any other
// order is first stable-sorted into a copy. Path ASes the graph does not
// index are skipped, and the graph's dictionary resolves every other hop.
//
// In prefix order the announcements of one prefix form a run, and the runs
// ascend. Each AS is stamped with the number of the run it was last seen in,
// so an AS is emitted once per run: the (AS, prefix) pairs it emits are
// distinct and already in prefix order. One pass logs them — each run's head
// as the complement of its first announcement's index, then the indexes of
// the ASes it emits — and counts them per AS; the prefix sums of the counts
// are the offsets, and a second pass over the log scatters each run's prefix
// to its ASes' next slots. Nothing is sorted, and the allocations are the
// same few slices whatever the table's size.
func NewNaiveIndex(g *Graph, anns []bgp.Announcement) *NaiveIndex {
	byPrefix := func(a, b bgp.Announcement) int { return a.Prefix.Compare(b.Prefix) }
	if !slices.IsSortedFunc(anns, byPrefix) {
		anns = slices.Clone(anns)
		slices.SortStableFunc(anns, byPrefix)
	}
	nAS := g.NumASes()
	logLen := 0
	for j, a := range anns {
		logLen += len(a.Path)
		if j == 0 || a.Prefix != anns[j-1].Prefix {
			logLen++
		}
	}
	runLog := make([]int32, 0, logLen)
	stamp := make([]int32, nAS) // run number of the AS's last emission; runs count from 1
	n := &NaiveIndex{off: make([]int32, nAS+1)}
	run := int32(0)
	for j, a := range anns {
		if j == 0 || a.Prefix != anns[j-1].Prefix {
			run++
			runLog = append(runLog, ^int32(j))
		}
		for _, as := range a.Path {
			if i := g.dict.get(as); i >= 0 && stamp[i] != run {
				stamp[i] = run
				n.off[i+1]++
				runLog = append(runLog, i)
			}
		}
	}
	for u := range nAS {
		n.off[u+1] += n.off[u]
	}
	n.flat = make([]netx.Prefix, n.off[nAS])
	next := stamp // each AS's next free slot in flat
	copy(next, n.off[:nAS])
	var p netx.Prefix
	for _, e := range runLog {
		if e < 0 {
			p = anns[^e].Prefix
			continue
		}
		n.flat[next[e]] = p
		next[e]++
	}
	return n
}

// ValidSpace returns the exact valid address space of the AS at index u.
func (n *NaiveIndex) ValidSpace(u int) netx.IntervalSet {
	return netx.IntervalSetOfPrefixes(n.ValidPrefixes(u)...)
}

// ValidPrefixes returns the distinct announced prefixes AS u is naively
// valid for, in prefix order: the prefixes ValidSpace covers. The slice is
// owned by the index and must not be modified.
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
