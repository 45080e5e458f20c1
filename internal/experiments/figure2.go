package experiments

import (
	"fmt"
	"sort"
	"strings"

	"spoofscope/internal/astopo"
	"spoofscope/internal/netx"
	"spoofscope/internal/stats"
)

// Figure2Result holds per-AS valid-address-space sizes (in /24
// equivalents) for the five inference variants of Figure 2.
type Figure2Result struct {
	NumASes int
	// Curves are ascending-sorted per-AS sizes, one per variant.
	Curves map[string][]uint64
	// FullTableASes counts ASes valid for (almost) the whole routed space
	// under Full Cone with orgs (paper: upwards of 5K ASes for 11M /24s).
	FullTableASes int
	RoutedSlash24 uint64
}

// envGraph builds the plain AS graph of env's table, without the org merge
// env's pipeline graph has. NewGraph's only error is a table of more than
// astopo.MaxASes ASes, and env's pipeline was built from the same table, so
// it cannot occur here.
func envGraph(env *Env) *astopo.Graph {
	g, err := astopo.NewGraph(env.RIB.Announcements(), nil, nil)
	if err != nil {
		panic(err)
	}
	return g
}

// Figure2 computes, for every routed AS, the size of its valid address
// space under Naive, Customer Cone (±orgs) and Full Cone (±orgs).
func Figure2(env *Env) *Figure2Result {
	anns := env.RIB.Announcements()
	orgs := env.Scenario.Orgs().MultiASGroups()

	gPlain := envGraph(env)
	// NewEnv compiled the pipeline over this table with the scenario's orgs
	// and no extra links: its graph is the org-merged one.
	gOrg := env.Pipeline.Graph()

	spacesPlain := astopo.OriginSpaces(gPlain, anns)
	wPlain := astopo.OriginSpaceWeights(spacesPlain)
	spacesOrg := astopo.OriginSpaces(gOrg, anns)
	wOrg := astopo.OriginSpaceWeights(spacesOrg)

	naive := astopo.NewNaiveIndex(gPlain, anns)

	res := &Figure2Result{
		NumASes:       gPlain.NumASes(),
		Curves:        make(map[string][]uint64),
		RoutedSlash24: env.Pipeline.RoutedSpace().Slash24Equivalents(),
	}
	put := func(name string, sizes []uint64) {
		s := append([]uint64(nil), sizes...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		res.Curves[name] = s
	}
	// weighted sums w over every AS's cone: the exact size when the origin
	// spaces are disjoint, an upper bound otherwise.
	weighted := func(walk func(*netx.Bitset, []int32, int, int) []int32, w []uint64) []uint64 {
		sizes := make([]uint64, len(w))
		astopo.EachCone(len(w), walk, func(u int, cone []int32) {
			for _, v := range cone {
				sizes[u] += w[v]
			}
		})
		return sizes
	}
	put("naive", naive.Sizes())
	put("customer-cone", weighted(gPlain.CustomerAdjacency(nil).Cone, wPlain))
	put("customer-cone+orgs", weighted(gPlain.CustomerAdjacency(orgs).Cone, wPlain))
	put("full-cone", weighted(gPlain.BoundedCone, wPlain))
	fullOrg := weighted(gOrg.BoundedCone, wOrg)
	put("full-cone+orgs", fullOrg)

	threshold := res.RoutedSlash24 * 95 / 100
	for _, v := range fullOrg {
		if v >= threshold {
			res.FullTableASes++
		}
	}
	return res
}

// quantilesOf samples a sorted curve at fixed rank quantiles.
func quantilesOf(curve []uint64, qs []float64) []uint64 {
	out := make([]uint64, len(qs))
	for i, q := range qs {
		idx := int(q * float64(len(curve)-1))
		out[i] = curve[idx]
	}
	return out
}

// Render prints curve quantiles (the figure is log-log; quantiles capture
// its shape).
func (r *Figure2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 — per-AS valid address space (/24 equivalents), %d ASes\n", r.NumASes)
	qs := []float64{0.10, 0.50, 0.75, 0.90, 0.99, 1.0}
	t := &stats.Table{Header: []string{"approach", "p10", "p50", "p75", "p90", "p99", "max"}}
	for _, name := range []string{"naive", "customer-cone", "customer-cone+orgs", "full-cone", "full-cone+orgs"} {
		curve := r.Curves[name]
		if len(curve) == 0 {
			continue
		}
		v := quantilesOf(curve, qs)
		t.AddRow(name, int(v[0]), int(v[1]), int(v[2]), int(v[3]), int(v[4]), int(v[5]))
	}
	b.WriteString(t.Render())
	fmt.Fprintf(&b, "ASes valid for >=95%% of the %d routed /24s under full-cone+orgs: %d\n",
		r.RoutedSlash24, r.FullTableASes)
	fmt.Fprintf(&b, "(paper: ~5K of ~57K ASes valid for all 11M routed /24s; org merging only grows cones)\n")
	return b.String()
}

// ConeContainmentResult verifies the §3.4 subset property.
type ConeContainmentResult struct {
	ASesChecked   int
	NaiveViolets  int // ASes whose naive space exceeds their full cone space
	CCViolets     int
	OrgGrowsCC    int // ASes whose CC cone grew with org merging
	OrgShrinksAny int // must stay 0
}

// ConeContainment checks Naive ⊆ Full and CC ⊆ Full per AS (by exact
// space containment), and that org merging never shrinks a cone. It walks
// the Customer Cones first, keeping each one's size and space, then the
// org-merged ones and the Full Cones, comparing as it reads.
func ConeContainment(env *Env) *ConeContainmentResult {
	anns := env.RIB.Announcements()
	orgs := env.Scenario.Orgs().MultiASGroups()
	g := envGraph(env)
	n := g.NumASes()
	naive := astopo.NewNaiveIndex(g, anns)
	spaces := astopo.OriginSpaces(g, anns)
	// space is the union of the origin spaces of the ASes in a cone.
	var ivs []netx.Interval
	space := func(cone []int32) netx.IntervalSet {
		ivs = ivs[:0]
		for _, v := range cone {
			ivs = append(ivs, spaces[v].Intervals()...)
		}
		return netx.NewIntervalSet(ivs...)
	}

	res := &ConeContainmentResult{ASesChecked: n}
	ccSize := make([]int, n)
	ccSpace := make([]netx.IntervalSet, n)
	astopo.EachCone(n, g.CustomerAdjacency(nil).Cone, func(u int, cone []int32) {
		ccSize[u], ccSpace[u] = len(cone), space(cone)
	})
	astopo.EachCone(n, g.CustomerAdjacency(orgs).Cone, func(u int, cone []int32) {
		if len(cone) > ccSize[u] {
			res.OrgGrowsCC++
		}
		if len(cone) < ccSize[u] {
			res.OrgShrinksAny++
		}
	})
	astopo.EachCone(n, g.BoundedCone, func(u int, cone []int32) {
		full := space(cone)
		if !full.ContainsSet(naive.ValidSpace(u)) {
			res.NaiveViolets++
		}
		if !full.ContainsSet(ccSpace[u]) {
			res.CCViolets++
		}
	})
	return res
}

// Render prints the containment check.
func (r *ConeContainmentResult) Render() string {
	return fmt.Sprintf(`§3.4 — cone containment over %d ASes
naive space ⊄ full cone:      %d violations
customer cone ⊄ full cone:    %d violations
org merge grew CC cones of:   %d ASes
org merge shrank cones of:    %d ASes (must be 0)
(paper: naive and CC spaces fully contained in the full cone)
`, r.ASesChecked, r.NaiveViolets, r.CCViolets, r.OrgGrowsCC, r.OrgShrinksAny)
}
