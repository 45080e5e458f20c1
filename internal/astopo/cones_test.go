package astopo

import (
	"math/rand"
	"testing"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
)

func TestTarjanSimpleCycle(t *testing.T) {
	// 0 -> 1 -> 2 -> 0, 2 -> 3
	adj := [][]int32{{1}, {2}, {0, 3}, {}}
	comp, n := tarjanSCC(adj)
	if n != 2 {
		t.Fatalf("n = %d", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatalf("cycle split: %v", comp)
	}
	if comp[3] == comp[0] {
		t.Fatalf("node 3 merged into cycle: %v", comp)
	}
	// Reverse topological order: edges go from higher comp id to lower.
	if comp[0] < comp[3] {
		t.Fatalf("component order violated: %v", comp)
	}
}

func TestTarjanDeepChainNoOverflow(t *testing.T) {
	// A 200k-node chain would overflow a recursive Tarjan's stack.
	const n = 200_000
	adj := make([][]int32, n)
	for i := 0; i < n-1; i++ {
		adj[i] = []int32{int32(i + 1)}
	}
	comp, nc := tarjanSCC(adj)
	if nc != n {
		t.Fatalf("components = %d", nc)
	}
	for i := 1; i < n; i++ {
		if comp[i-1] <= comp[i] {
			t.Fatal("chain must have strictly decreasing component ids")
		}
	}
}

func TestTarjanAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 50; iter++ {
		n := rng.Intn(12) + 2
		adj := make([][]int32, n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Intn(4) == 0 {
					adj[u] = append(adj[u], int32(v))
				}
			}
		}
		comp, _ := tarjanSCC(adj)
		reach := bruteReach(adj)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				same := reach[u][v] && reach[v][u]
				if same != (comp[u] == comp[v]) {
					t.Fatalf("SCC mismatch u=%d v=%d comp=%v", u, v, comp)
				}
			}
		}
	}
}

func bruteReach(adj [][]int32) [][]bool {
	n := len(adj)
	r := make([][]bool, n)
	for u := range r {
		r[u] = make([]bool, n)
		r[u][u] = true
		stack := []int{u}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range adj[x] {
				if !r[u][y] {
					r[u][y] = true
					stack = append(stack, int(y))
				}
			}
		}
	}
	return r
}

func TestClosureAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 30; iter++ {
		// Random announcements over a small AS population.
		var anns []bgp.Announcement
		for i := 0; i < 30; i++ {
			plen := rng.Intn(3) + 2
			path := make([]bgp.ASN, plen)
			for j := range path {
				path[j] = bgp.ASN(rng.Intn(10) + 1)
			}
			anns = append(anns, ann("10.0.0.0/8", path...))
		}
		g := NewGraph(anns)
		c := g.FullConeClosure()
		reach := bruteReach(g.down)
		for u := 0; u < g.NumASes(); u++ {
			want := 0
			for v := 0; v < g.NumASes(); v++ {
				if reach[u][v] {
					want++
				}
				if c.Contains(u, v) != reach[u][v] {
					t.Fatalf("Contains(%d,%d) mismatch", u, v)
				}
			}
			if c.ConeSize(u) != want {
				t.Fatalf("ConeSize(%d) = %d want %d", u, c.ConeSize(u), want)
			}
		}
	}
}

func TestFullConeHierarchy(t *testing.T) {
	anns := hierarchyAnns()
	g := NewGraph(anns)
	c := g.FullConeClosure()

	coneOf := func(as bgp.ASN) map[bgp.ASN]bool {
		out := map[bgp.ASN]bool{}
		for _, i := range c.ConeMembers(g.Index(as)) {
			out[g.ASN(i)] = true
		}
		return out
	}
	// Stub cones contain themselves only... unless a path placed them
	// upstream (1002 and 2001 appear leftmost on some paths, gaining edges).
	if cone := coneOf(1001); len(cone) != 1 || !cone[1001] {
		t.Errorf("cone(1001) = %v", cone)
	}
	// Tier-1 AS10 must reach everything it has a directed path to,
	// including via the 100-200 peering.
	cone10 := coneOf(10)
	for _, as := range []bgp.ASN{10, 100, 200, 1001, 1002, 2001, 20} {
		if !cone10[as] {
			t.Errorf("cone(10) missing AS%d", as)
		}
	}
	// The paper's Figure 1c scenario: peering makes ASD's prefix valid at
	// ASA — here 2001 (in 200's cone) must be inside 100's full cone via
	// the 100→200 peering edge.
	cone100 := coneOf(100)
	if !cone100[2001] {
		t.Error("full cone must cross the 100-200 peering to reach 2001")
	}
}

func TestCustomerConeExcludesPeering(t *testing.T) {
	anns := hierarchyAnns()
	g := NewGraph(anns)
	g.InferRelationships(anns, 0)
	cc := g.CustomerConeClosure(false)

	i100, i2001 := g.Index(100), g.Index(2001)
	if cc.Contains(i100, i2001) {
		t.Error("customer cone must NOT cross the 100-200 peering (Figure 1c)")
	}
	// But 100's own customers are inside.
	if !cc.Contains(i100, g.Index(1001)) || !cc.Contains(i100, g.Index(1002)) {
		t.Error("customer cone missing direct customers")
	}
	// Full cone contains the customer cone (§3.4).
	fc := g.FullConeClosure()
	for u := 0; u < g.NumASes(); u++ {
		for v := 0; v < g.NumASes(); v++ {
			if cc.Contains(u, v) && !fc.Contains(u, v) {
				t.Fatalf("CC ⊄ FullCone at (%s,%s)", g.ASN(u), g.ASN(v))
			}
		}
	}
}

func TestCustomerConeWithOrgs(t *testing.T) {
	anns := hierarchyAnns()
	g := NewGraph(anns)
	g.InferRelationships(anns, 0)
	// Put 100 and 200 in one organization: their joint cones merge.
	cc := g.CustomerConeWithOrgs([][]bgp.ASN{{100, 200}})
	if !cc.Contains(g.Index(100), g.Index(2001)) {
		t.Error("org-merged customer cone must reach sibling's customers")
	}
	plain := g.CustomerConeClosure(false)
	// Org merging only grows cones.
	for u := 0; u < g.NumASes(); u++ {
		if cc.ConeSize(u) < plain.ConeSize(u) {
			t.Fatalf("org merge shrank cone of %s", g.ASN(u))
		}
	}
}

func TestNaiveIndex(t *testing.T) {
	anns := hierarchyAnns()
	g := NewGraph(anns)
	ni := NewNaiveIndex(g, anns)

	// AS10 appears on paths for stub prefixes and tier prefixes.
	space10 := ni.ValidSpace(g.Index(10))
	if !space10.Contains(netx.MustParseAddr("20.1.5.5")) {
		t.Error("naive space of AS10 missing 20.1/16")
	}
	// AS1001 appears only on its own prefix's paths.
	space1001 := ni.ValidSpace(g.Index(1001))
	if !space1001.Contains(netx.MustParseAddr("20.1.0.1")) {
		t.Error("naive space of AS1001 missing own prefix")
	}
	if space1001.Contains(netx.MustParseAddr("30.1.0.1")) {
		t.Error("naive space of AS1001 must not contain AS2001's prefix")
	}
	// Dedup: repeated paths must not duplicate.
	if n := ni.NumPrefixes(g.Index(1001)); n != 1 {
		t.Errorf("NumPrefixes(1001) = %d", n)
	}
}

// TestConeContainmentProperty verifies §3.4: per-AS valid space under Naive
// and Customer Cone is contained in the Full Cone's, on random topologies.
func TestConeContainmentProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 20; iter++ {
		anns := randomValleyFreeAnns(rng)
		g := NewGraph(anns)
		g.InferRelationships(anns, 0)
		ni := NewNaiveIndex(g, anns)
		cc := g.CustomerConeClosure(false)
		fc := g.FullConeClosure()
		spaces := OriginSpaces(g, anns)

		for u := 0; u < g.NumASes(); u++ {
			full := fc.ExactValidSpace(u, spaces)
			if !full.ContainsSet(ni.ValidSpace(u)) {
				t.Fatalf("iter %d: naive space of %s not inside full cone", iter, g.ASN(u))
			}
			if !full.ContainsSet(cc.ExactValidSpace(u, spaces)) {
				t.Fatalf("iter %d: CC space of %s not inside full cone", iter, g.ASN(u))
			}
		}
	}
}

// randomValleyFreeAnns generates a random small hierarchy and valley-free
// announcements from every origin.
func randomValleyFreeAnns(rng *rand.Rand) []bgp.Announcement {
	// Tier sizes: 2 tier-1, 3 transit, 8 stubs.
	t1 := []bgp.ASN{10, 20}
	t2 := []bgp.ASN{100, 200, 300}
	stubs := []bgp.ASN{1001, 1002, 1003, 2001, 2002, 3001, 3002, 3003}
	provOf := map[bgp.ASN]bgp.ASN{}
	for _, s := range stubs {
		provOf[s] = t2[rng.Intn(len(t2))]
	}
	for _, m := range t2 {
		provOf[m] = t1[rng.Intn(len(t1))]
	}
	var anns []bgp.Announcement
	base := uint32(0x14000000) // 20.0.0.0
	i := 0
	origin := func(as bgp.ASN) netx.Prefix {
		i++
		return netx.PrefixFrom(netx.Addr(base+uint32(i)<<16), 16)
	}
	for as := range provOf {
		p := origin(as)
		// Announce own prefix up the provider chain; collectors see the
		// chain reversed with each upstream prepended.
		chain := []bgp.ASN{as}
		cur := as
		for {
			prov, ok := provOf[cur]
			if !ok {
				break
			}
			chain = append([]bgp.ASN{prov}, chain...)
			cur = prov
		}
		for l := 1; l <= len(chain); l++ {
			anns = append(anns, bgp.Announcement{Prefix: p, Path: chain[len(chain)-l:], Origin: as})
		}
		// Tier-1 peering spreads it to the other tier-1.
		if len(chain) >= 1 && (chain[0] == 10 || chain[0] == 20) {
			other := bgp.ASN(30 - chain[0])
			anns = append(anns, bgp.Announcement{
				Prefix: p, Path: append([]bgp.ASN{other}, chain...), Origin: as,
			})
		}
	}
	return anns
}

func TestWeightedSizesMatchesExactWhenDisjoint(t *testing.T) {
	anns := hierarchyAnns()
	g := NewGraph(anns)
	fc := g.FullConeClosure()
	spaces := OriginSpaces(g, anns)
	w := OriginSpaceWeights(spaces)
	sizes := fc.WeightedSizes(w)
	for u := 0; u < g.NumASes(); u++ {
		exact := fc.ExactValidSpace(u, spaces).Slash24Equivalents()
		if sizes[u] != exact {
			t.Fatalf("WeightedSizes(%s) = %d, exact = %d", g.ASN(u), sizes[u], exact)
		}
	}
}

func TestValidOriginSet(t *testing.T) {
	anns := hierarchyAnns()
	g := NewGraph(anns)
	fc := g.FullConeClosure()
	u := g.Index(10)
	set := fc.ValidOriginSet(u)
	for v := 0; v < g.NumASes(); v++ {
		if set.Test(v) != fc.Contains(u, v) {
			t.Fatalf("ValidOriginSet mismatch at %s", g.ASN(v))
		}
	}
}

func TestBoundedCone(t *testing.T) {
	anns := hierarchyAnns()
	g := NewGraph(anns)
	fc := g.FullConeClosure()
	u := g.Index(10)

	// Depth 0: only self.
	b0 := g.BoundedCone(u, 0)
	if b0.Count() != 1 || !b0.Test(u) {
		t.Fatalf("depth 0 cone = %d bits", b0.Count())
	}
	// Monotone growth with depth, bounded by the full closure.
	prev := b0
	full := fc.ValidOriginSet(u)
	for d := 1; d <= 6; d++ {
		b := g.BoundedCone(u, d)
		if !b.ContainsAll(prev) {
			t.Fatalf("depth %d cone lost members", d)
		}
		if !full.ContainsAll(b) {
			t.Fatalf("depth %d cone escapes the full closure", d)
		}
		prev = b
	}
	// Large depth converges to the full closure.
	deep := g.BoundedCone(u, g.NumASes())
	if !deep.ContainsAll(full) || !full.ContainsAll(deep) {
		t.Fatal("deep bounded cone != full closure")
	}
}

func TestBoundedConeDepthOne(t *testing.T) {
	anns := hierarchyAnns()
	g := NewGraph(anns)
	u := g.Index(10)
	b1 := g.BoundedCone(u, 1)
	// Depth 1 = self + direct downstream neighbours.
	b1.ForEach(func(i int) {
		if i != u && !g.HasEdge(u, i) {
			t.Fatalf("depth-1 cone contains non-neighbour %s", g.ASN(i))
		}
	})
}
