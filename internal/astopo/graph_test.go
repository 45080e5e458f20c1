package astopo

import (
	"testing"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
)

// ann builds a test announcement.
func ann(prefix string, path ...bgp.ASN) bgp.Announcement {
	return bgp.Announcement{
		Prefix: netx.MustParsePrefix(prefix),
		Path:   path,
		Origin: path[len(path)-1],
	}
}

// mustGraph is NewGraph for a test's inputs, which stay far below MaxASes.
func mustGraph(t testing.TB, anns []bgp.Announcement, orgs [][]bgp.ASN, extra [][2]bgp.ASN) *Graph {
	t.Helper()
	g, err := NewGraph(anns, orgs, extra)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// related returns the dense indices of the ASes linked to u by r, from u's
// perspective: its providers for RelC2P, its customers for RelP2C.
func related(g *Graph, u int, r Rel) []int {
	var out []int
	for v := range g.NumASes() {
		if g.Relationship(u, v) == r {
			out = append(out, v)
		}
	}
	return out
}

// figure1bAnns models the paper's Figure 1b: provider AS2 with customer
// AS1, peering with AS3, which in turn has customer AS4. Announcements
// propagate valley-free from every origin and are observed from collectors
// behind each AS, so both directions of the peering carry routes.
func figure1bAnns() []bgp.Announcement {
	return []bgp.Announcement{
		// AS1's prefix.
		ann("10.1.0.0/16", 2, 1),
		ann("10.1.0.0/16", 3, 2, 1),
		ann("10.1.0.0/16", 4, 3, 2, 1),
		// AS2's prefix.
		ann("10.2.0.0/16", 1, 2),
		ann("10.2.0.0/16", 3, 2),
		ann("10.2.0.0/16", 4, 3, 2),
		// AS3's prefix.
		ann("10.3.0.0/16", 4, 3),
		ann("10.3.0.0/16", 2, 3),
		ann("10.3.0.0/16", 1, 2, 3),
		// AS4's prefix.
		ann("10.4.0.0/16", 3, 4),
		ann("10.4.0.0/16", 2, 3, 4),
		ann("10.4.0.0/16", 1, 2, 3, 4),
	}
}

func TestGraphBuild(t *testing.T) {
	g := mustGraph(t, figure1bAnns(), nil, nil)
	if g.NumASes() != 4 {
		t.Fatalf("NumASes = %d", g.NumASes())
	}
	for _, as := range []bgp.ASN{1, 2, 3, 4} {
		if g.Index(as) < 0 {
			t.Fatalf("missing AS%d", as)
		}
	}
	i1, i2, i3 := g.Index(1), g.Index(2), g.Index(3)
	if !g.HasEdge(i2, i1) || !g.HasEdge(i3, i2) || !g.HasEdge(i2, i3) || !g.HasEdge(i1, i2) {
		t.Fatal("expected directed edges missing")
	}
	if g.HasEdge(i3, i1) || g.HasEdge(i1, i3) {
		t.Fatal("unexpected direct edge between AS1 and AS3")
	}
	if g.Degree(i2) != 2 || g.Degree(i1) != 1 || g.Degree(i3) != 2 {
		t.Fatalf("degrees = %d %d %d", g.Degree(i1), g.Degree(i2), g.Degree(i3))
	}
}

func TestGraphIndexMiss(t *testing.T) {
	g := mustGraph(t, figure1bAnns(), nil, nil)
	if g.Index(999) != -1 {
		t.Fatal("Index must return -1 for unknown AS")
	}
}

// TestNewGraphExtraLinks: an extra link is an edge both ways whether or not a
// path shows it, once however often it is named; a self-link and an AS no
// path names are ignored. It adds no Degree, and one no path shows has no
// relationship.
func TestNewGraphExtraLinks(t *testing.T) {
	g := mustGraph(t, figure1bAnns(), nil, [][2]bgp.ASN{{1, 3}, {3, 1}, {1, 1}, {3, 999}, {2, 3}})
	i1, i2, i3 := g.Index(1), g.Index(2), g.Index(3)
	if !g.HasEdge(i1, i3) || !g.HasEdge(i3, i1) {
		t.Fatal("the extra link 1-3 is not an edge both ways")
	}
	if g.HasEdge(i1, i1) || len(g.down[i3]) != 3 {
		t.Fatalf("AS3's edges lead to %v, want AS2, AS1 and AS4 once each", g.down[i3])
	}
	if g.Degree(i1) != 1 || g.Degree(i3) != 2 {
		t.Fatalf("degrees = %d %d, want the path links' 1 2", g.Degree(i1), g.Degree(i3))
	}
	if r := g.Relationship(i1, i3); r != RelUnknown {
		t.Fatalf("rel(AS1, AS3) = %v, want unknown", r)
	}
	if r := g.Relationship(i2, i3); r != RelPeer {
		t.Fatalf("rel(AS2, AS3) = %v: naming a path link again must not change its inference", r)
	}
}

// TestNewGraphOrgMesh: an organization's members are linked both ways and
// their links are sibling (peer) links, also where the paths show a
// customer link; a member no path names is ignored, and the mesh adds no
// Degree.
func TestNewGraphOrgMesh(t *testing.T) {
	g := mustGraph(t, figure1bAnns(), [][]bgp.ASN{{1, 4}, {2, 777}, {1, 2}}, nil)
	i1, i2, i4 := g.Index(1), g.Index(2), g.Index(4)
	if !g.HasEdge(i1, i4) || !g.HasEdge(i4, i1) {
		t.Fatal("the org link 1-4 is not an edge both ways")
	}
	if r := g.Relationship(i1, i4); r != RelPeer {
		t.Fatalf("org link relationship = %v", r)
	}
	if r := g.Relationship(i1, i2); r != RelPeer {
		t.Fatalf("rel(AS1, AS2) = %v: an org link stays peer over the paths' c2p", r)
	}
	if g.Index(777) != -1 || g.Degree(i1) != 1 || g.Degree(i4) != 1 {
		t.Fatalf("the mesh added AS777 or degrees: %d %d", g.Degree(i1), g.Degree(i4))
	}
}

// TestRelationshipOrientation: a link's relationship reads from either end,
// and ASes with no link between them have none.
func TestRelationshipOrientation(t *testing.T) {
	g := mustGraph(t, figure1bAnns(), nil, nil)
	i1, i2, i3 := g.Index(1), g.Index(2), g.Index(3)
	if g.Relationship(i1, i2) != RelC2P {
		t.Fatalf("rel(1,2) = %v", g.Relationship(i1, i2))
	}
	if g.Relationship(i2, i1) != RelP2C {
		t.Fatalf("rel(2,1) = %v", g.Relationship(i2, i1))
	}
	if g.Relationship(i1, i3) != RelUnknown || g.Relationship(i3, i1) != RelUnknown || g.Relationship(i1, i1) != RelUnknown {
		t.Fatal("unlinked ASes have a relationship")
	}
}

func TestInferRelationshipsFigure1b(t *testing.T) {
	g := mustGraph(t, figure1bAnns(), nil, nil)
	i1, i2, i3, i4 := g.Index(1), g.Index(2), g.Index(3), g.Index(4)
	if got := g.Relationship(i1, i2); got != RelC2P {
		t.Errorf("AS1-AS2 = %v, want c2p", got)
	}
	if got := g.Relationship(i4, i3); got != RelC2P {
		t.Errorf("AS4-AS3 = %v, want c2p", got)
	}
	if got := g.Relationship(i2, i3); got != RelPeer {
		t.Errorf("AS2-AS3 = %v, want peer", got)
	}
	if provs := related(g, i1, RelC2P); len(provs) != 1 || provs[0] != i2 {
		t.Errorf("providers of AS1 = %v", provs)
	}
	if custs := related(g, i2, RelP2C); len(custs) != 1 || custs[0] != i1 {
		t.Errorf("customers of AS2 = %v", custs)
	}
}

// hierarchyAnns builds a realistic 3-tier hierarchy:
//
//	tier-1:  10, 20 (peers); each with several direct stub customers
//	         (500x under 10, 600x under 20) so that tier-1 degrees dominate.
//	transit: 100 (customer of 10), 200 (customer of 20); 100-200 peer.
//	stubs:   1001, 1002 (customers of 100), 2001 (customer of 200).
//
// Announcements propagate valley-free from each origin and are observed
// from collectors behind multiple ASes.
func hierarchyAnns() []bgp.Announcement {
	var anns []bgp.Announcement
	add := func(prefix string, path ...bgp.ASN) {
		anns = append(anns, ann(prefix, path...))
	}
	// Direct tier-1 stubs: own prefixes visible everywhere.
	t1stubs := map[bgp.ASN][]bgp.ASN{
		10: {5001, 5002, 5003},
		20: {6001, 6002, 6003, 6004},
	}
	prefixFor := map[bgp.ASN]string{
		5001: "60.1.0.0/16", 5002: "60.2.0.0/16", 5003: "60.3.0.0/16",
		6001: "61.1.0.0/16", 6002: "61.2.0.0/16", 6003: "61.3.0.0/16",
		6004: "61.4.0.0/16",
	}
	for t1, stubs := range t1stubs {
		other := bgp.ASN(30) - t1
		for _, s := range stubs {
			p := prefixFor[s]
			add(p, t1, s)
			add(p, other, t1, s)
			// Seen behind transit 100 (customer of 10): direct for 10's
			// stubs, via the tier-1 peering for 20's.
			if t1 == 10 {
				add(p, 100, 10, s)
			} else {
				add(p, 100, 10, 20, s)
			}
		}
	}
	// Stub 1001's prefix.
	add("20.1.0.0/16", 100, 1001)
	add("20.1.0.0/16", 10, 100, 1001)
	add("20.1.0.0/16", 20, 10, 100, 1001)
	add("20.1.0.0/16", 6001, 20, 10, 100, 1001)
	add("20.1.0.0/16", 200, 100, 1001) // via 100-200 peering
	add("20.1.0.0/16", 2001, 200, 100, 1001)
	add("20.1.0.0/16", 1002, 100, 1001)
	// Stub 1002's prefix.
	add("20.2.0.0/16", 100, 1002)
	add("20.2.0.0/16", 10, 100, 1002)
	add("20.2.0.0/16", 20, 10, 100, 1002)
	// Stub 2001's prefix.
	add("30.1.0.0/16", 200, 2001)
	add("30.1.0.0/16", 20, 200, 2001)
	add("30.1.0.0/16", 10, 20, 200, 2001)
	add("30.1.0.0/16", 5001, 10, 20, 200, 2001)
	add("30.1.0.0/16", 100, 200, 2001) // via 100-200 peering
	// Transit 100's own prefix.
	add("40.0.0.0/12", 10, 100)
	add("40.0.0.0/12", 20, 10, 100)
	// Transit 200's own prefix.
	add("41.0.0.0/12", 20, 200)
	// Tier-1 prefixes.
	add("50.0.0.0/10", 20, 10)
	add("50.0.0.0/10", 100, 10)
	add("51.0.0.0/10", 10, 20)
	add("51.0.0.0/10", 200, 20)
	return anns
}

func TestInferRelationshipsHierarchy(t *testing.T) {
	anns := hierarchyAnns()
	g := mustGraph(t, anns, nil, nil)

	check := func(a, b bgp.ASN, want Rel) {
		t.Helper()
		got := g.Relationship(g.Index(a), g.Index(b))
		if got != want {
			t.Errorf("rel(AS%d, AS%d) = %v, want %v", a, b, got, want)
		}
	}
	check(1001, 100, RelC2P)
	check(1002, 100, RelC2P)
	check(2001, 200, RelC2P)
	check(100, 10, RelC2P)
	check(200, 20, RelC2P)
	check(5001, 10, RelC2P)
	check(6001, 20, RelC2P)
	check(10, 20, RelPeer)
	check(100, 200, RelPeer)
}
