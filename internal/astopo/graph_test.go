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
	g := NewGraph(figure1bAnns())
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
	g := NewGraph(figure1bAnns())
	if g.Index(999) != -1 {
		t.Fatal("Index must return -1 for unknown AS")
	}
}

func TestAddLink(t *testing.T) {
	g := NewGraph(figure1bAnns())
	i1, i3 := g.Index(1), g.Index(3)
	if !g.AddLink(i1, i3) {
		t.Fatal("AddLink returned false for new link")
	}
	if !g.HasEdge(i1, i3) || !g.HasEdge(i3, i1) {
		t.Fatal("AddLink did not add both directions")
	}
	if g.AddLink(i1, i3) {
		t.Fatal("AddLink reported adding an existing link")
	}
	if g.AddLink(i1, i1) {
		t.Fatal("AddLink accepted a self-loop")
	}
	if g.AddLink(-1, i3) || g.AddLink(i3, 99) {
		t.Fatal("AddLink accepted out-of-range index")
	}
}

func TestAddOrgMesh(t *testing.T) {
	g := NewGraph(figure1bAnns())
	added := g.AddOrgMesh([][]bgp.ASN{{1, 4}, {2, 777}}) // 777 unknown
	if added != 1 {
		t.Fatalf("AddOrgMesh added %d links", added)
	}
	i1, i4 := g.Index(1), g.Index(4)
	if g.Relationship(i1, i4) != RelPeer {
		t.Fatalf("org link relationship = %v", g.Relationship(i1, i4))
	}
}

func TestRelationshipOrientation(t *testing.T) {
	g := NewGraph(figure1bAnns())
	i1, i2 := g.Index(1), g.Index(2)
	g.setRel(i1, i2, RelC2P) // AS1 is customer of AS2
	if g.Relationship(i1, i2) != RelC2P {
		t.Fatalf("rel(1,2) = %v", g.Relationship(i1, i2))
	}
	if g.Relationship(i2, i1) != RelP2C {
		t.Fatalf("rel(2,1) = %v", g.Relationship(i2, i1))
	}
}

func TestInferRelationshipsFigure1b(t *testing.T) {
	g := NewGraph(figure1bAnns())
	g.InferRelationships(figure1bAnns())
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
	if provs := g.Providers(i1); len(provs) != 1 || provs[0] != i2 {
		t.Errorf("Providers(AS1) = %v", provs)
	}
	if custs := g.Customers(i2); len(custs) != 1 || custs[0] != i1 {
		t.Errorf("Customers(AS2) = %v", custs)
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
	g := NewGraph(anns)
	g.InferRelationships(anns)

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

func TestRelationshipStatsAndLinks(t *testing.T) {
	anns := hierarchyAnns()
	g := NewGraph(anns)
	g.InferRelationships(anns)
	s := g.RelationshipStats()
	if s.C2P == 0 || s.Peer == 0 {
		t.Fatalf("stats = %+v", s)
	}
	links := g.Links()
	if len(links) != s.C2P+s.Peer+s.Unknown {
		t.Fatalf("Links() count %d != stats sum", len(links))
	}
	for i := 1; i < len(links); i++ {
		if links[i-1][0] > links[i][0] ||
			(links[i-1][0] == links[i][0] && links[i-1][1] >= links[i][1]) {
			t.Fatal("Links() not sorted")
		}
	}
}
