package astopo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
)

// randomTopology synthesizes a graph the way the pipeline does: random AS
// paths (deliberately including reversed paths, so the directed graph has
// real cycles and non-trivial SCCs), an org mesh, and inferred
// relationships. Returns the graph, the announcements, and the org groups.
func randomTopology(t testing.TB, rng *rand.Rand) (*Graph, []bgp.Announcement, [][]bgp.ASN) {
	nASN := 20 + rng.Intn(40)
	pathOf := func() []bgp.ASN {
		l := 2 + rng.Intn(4)
		p := make([]bgp.ASN, 0, l)
		seen := map[bgp.ASN]bool{}
		for len(p) < l {
			a := bgp.ASN(100 + rng.Intn(nASN))
			if !seen[a] {
				seen[a] = true
				p = append(p, a)
			}
		}
		return p
	}
	var anns []bgp.Announcement
	nPaths := 30 + rng.Intn(60)
	for i := 0; i < nPaths; i++ {
		path := pathOf()
		pfx := netx.Prefix{Addr: netx.Addr(uint32(i+1) << 12), Bits: 20}
		anns = append(anns, bgp.Announcement{Prefix: pfx, Path: path, Origin: path[len(path)-1]})
		if rng.Intn(3) == 0 {
			// Reversed observation: guarantees bidirectional links, hence
			// cycles and multi-node SCCs in the directed graph.
			rev := make([]bgp.ASN, len(path))
			for j, a := range path {
				rev[len(path)-1-j] = a
			}
			anns = append(anns, bgp.Announcement{Prefix: pfx, Path: rev, Origin: rev[len(rev)-1]})
		}
	}
	var orgs [][]bgp.ASN
	for i := 0; i < rng.Intn(4); i++ {
		g := []bgp.ASN{bgp.ASN(100 + rng.Intn(nASN)), bgp.ASN(100 + rng.Intn(nASN))}
		if rng.Intn(2) == 0 {
			g = append(g, bgp.ASN(100+rng.Intn(nASN)))
		}
		orgs = append(orgs, g)
	}
	return mustGraph(t, anns, orgs, nil), anns, orgs
}

// oracleCustomerAdjacency is the customer adjacency built another way: each
// AS's inferred customers (every AS it is a provider of), kept when the edge
// toward them was observed, and the org links kept only where the graph has
// them, as the pipeline's cones once gated them.
func oracleCustomerAdjacency(g *Graph, orgs [][]bgp.ASN) [][]int32 {
	adj := make([][]int32, g.NumASes())
	for u := range adj {
		for v := range adj {
			if g.Relationship(u, v) == RelP2C && g.HasEdge(u, v) {
				adj[u] = append(adj[u], int32(v))
			}
		}
	}
	for _, members := range orgs {
		for _, a := range members {
			for _, b := range members {
				if u, v := g.Index(a), g.Index(b); u >= 0 && v >= 0 && u != v && g.HasEdge(u, v) {
					adj[u] = append(adj[u], int32(v))
				}
			}
		}
	}
	return adj
}

// boundedOracle is the frontier BFS BoundedCone ran before it became a walk:
// u plus every AS at most depth hops down adj; depth <= 0 yields {u}.
func boundedOracle(adj [][]int32, u, depth int) *netx.Bitset {
	out := netx.NewBitset(len(adj))
	out.Set(u)
	frontier := []int32{int32(u)}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []int32
		for _, x := range frontier {
			for _, v := range adj[x] {
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

// boundedCone walks u's Full Cone cut at depth into a fresh bitset.
func boundedCone(g *Graph, u, depth int) *netx.Bitset {
	out := netx.NewBitset(g.NumASes())
	g.BoundedCone(out, nil, u, depth)
	return out
}

// requireSameSet asserts two bitsets over n ASes hold the same bits.
func requireSameSet(t *testing.T, label string, n int, want, got *netx.Bitset) {
	t.Helper()
	for i := 0; i < n; i++ {
		if want.Test(i) != got.Test(i) {
			t.Fatalf("%s: bit %d = %v, want %v", label, i, got.Test(i), want.Test(i))
		}
	}
}

// TestConeWalksMatchClosures is the property test for the member cone walk:
// over random cyclic topologies, with and without an org mesh, every AS's
// unbounded walk down the graph and down CustomerAdjacency must equal the
// sequential closures' cones (the customer one built from the
// walk's adjacency and from an independently built, HasEdge-gated one),
// and the walk cut at depths 0, 1 and 2 must equal the frontier BFS
// BoundedCone used to be.
func TestConeWalksMatchClosures(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 25; iter++ {
		g, _, orgs := randomTopology(t, rng)
		if iter%2 == 0 {
			orgs = nil // exercise the org-free customer cone too
		}
		n := g.NumASes()
		fullRef := g.FullConeClosure()
		ccRef := g.CustomerConeWithOrgs(orgs)
		ccGated := newClosure(oracleCustomerAdjacency(g, orgs))
		ccAdj := g.CustomerAdjacency(orgs)
		// Every walk below queues on one array, as a compile worker's do.
		var queue []int32
		full := func(u, depth int) *netx.Bitset {
			out := netx.NewBitset(n)
			queue = g.BoundedCone(out, queue, u, depth)
			return out
		}
		cone := func(u, depth int) *netx.Bitset {
			out := netx.NewBitset(n)
			queue = ccAdj.Cone(out, queue, u, depth)
			return out
		}
		for u := 0; u < n; u++ {
			label := fmt.Sprintf("iter=%d u=%d", iter, u)
			requireSameSet(t, label+" full", n, coneSet(fullRef, u), full(u, math.MaxInt))
			cc := cone(u, math.MaxInt)
			requireSameSet(t, label+" cc", n, coneSet(ccRef, u), cc)
			requireSameSet(t, label+" cc gated", n, coneSet(ccGated, u), cc)
			if got := cc.Count(); got != ccRef.ConeSize(u) {
				t.Fatalf("%s: cc walk reaches %d ASes, closure cone size %d", label, got, ccRef.ConeSize(u))
			}
			for depth := 0; depth <= 2; depth++ {
				dl := fmt.Sprintf("%s depth=%d", label, depth)
				requireSameSet(t, dl+" full", n, boundedOracle(g.down, u, depth), full(u, depth))
				requireSameSet(t, dl+" cc", n, boundedOracle(ccAdj, u, depth), cone(u, depth))
			}
		}
	}
}
