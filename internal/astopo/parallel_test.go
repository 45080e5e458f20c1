package astopo

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
)

// randomTopology synthesizes a graph the way the pipeline does: random AS
// paths (deliberately including reversed paths, so the directed graph has
// real cycles and non-trivial SCCs), an org mesh, and inferred
// relationships. Returns the graph, the announcements, and the org groups.
func randomTopology(rng *rand.Rand) (*Graph, []bgp.Announcement, [][]bgp.ASN) {
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
	g := NewGraph(anns)
	g.AddOrgMesh(orgs)
	g.InferRelationships(anns, 0)
	return g, anns, orgs
}

// requireClosureEqual asserts a and b agree on every observable: pairwise
// Contains, cone sizes, and the valid-origin bitsets. Component-id
// numbering is allowed to differ (the parallel path condenses through a
// contraction, so ids are permuted); behavior must not.
func requireClosureEqual(t *testing.T, label string, nASes int, a, b *Closure) {
	t.Helper()
	for u := 0; u < nASes; u++ {
		if as, bs := a.ConeSize(u), b.ConeSize(u); as != bs {
			t.Fatalf("%s: ConeSize(%d) = %d vs %d", label, u, as, bs)
		}
		for v := 0; v < nASes; v++ {
			if av, bv := a.Contains(u, v), b.Contains(u, v); av != bv {
				t.Fatalf("%s: Contains(%d,%d) = %v vs %v", label, u, v, av, bv)
			}
		}
	}
	for u := 0; u < nASes; u += 7 {
		av, bv := a.ValidOriginSet(u), b.ValidOriginSet(u)
		for i := 0; i < nASes; i++ {
			if av.Test(i) != bv.Test(i) {
				t.Fatalf("%s: ValidOriginSet(%d) bit %d differs", label, u, i)
			}
		}
	}
}

// TestConeClosuresMatchSequential is the property test for the parallel
// compilation path: over random cyclic topologies with org meshes,
// ConeClosures (shared condensation, level-parallel propagation) must be
// element-for-element identical to the sequential legacy constructors at
// every worker count.
func TestConeClosuresMatchSequential(t *testing.T) {
	// The container may have GOMAXPROCS=1, which would clamp every worker
	// count to sequential; raise it so the level-parallel path truly runs.
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 25; iter++ {
		g, _, orgs := randomTopology(rng)
		if iter%2 == 0 {
			orgs = nil // exercise the org-free customer cone too
		}
		fullRef := g.FullConeClosure()
		var ccRef *Closure
		if orgs != nil {
			ccRef = g.CustomerConeWithOrgs(orgs)
		} else {
			ccRef = g.CustomerConeClosure()
		}
		for _, workers := range []int{1, 2, 4, 8} {
			full, cc := g.ConeClosures(orgs, workers)
			label := fmt.Sprintf("iter=%d workers=%d full", iter, workers)
			requireClosureEqual(t, label, g.NumASes(), fullRef, full)
			label = fmt.Sprintf("iter=%d workers=%d cc", iter, workers)
			requireClosureEqual(t, label, g.NumASes(), ccRef, cc)
		}
	}
}

// TestConeClosuresLargeLevel pushes one level past minParallelLevel so the
// chunked fan-out path (not just the small-level sequential fallback) is
// exercised: a two-level tree with a wide fan of leaves.
func TestConeClosuresLargeLevel(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const width = 3 * minParallelLevel
	var anns []bgp.Announcement
	root := bgp.ASN(1)
	for i := 0; i < width; i++ {
		leaf := bgp.ASN(1000 + i)
		pfx := netx.Prefix{Addr: netx.Addr(uint32(i+1) << 10), Bits: 22}
		anns = append(anns, bgp.Announcement{Prefix: pfx, Path: []bgp.ASN{root, leaf}, Origin: leaf})
	}
	g := NewGraph(anns)
	g.InferRelationships(anns, 0)
	fullRef := g.FullConeClosure()
	ccRef := g.CustomerConeClosure()
	for _, workers := range []int{2, 4} {
		full, cc := g.ConeClosures(nil, workers)
		requireClosureEqual(t, fmt.Sprintf("w=%d full", workers), g.NumASes(), fullRef, full)
		requireClosureEqual(t, fmt.Sprintf("w=%d cc", workers), g.NumASes(), ccRef, cc)
	}
}
