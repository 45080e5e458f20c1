package core

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"spoofscope/internal/bgp"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
)

// testRIB builds a small hand-crafted routing view:
//
//	tier-1 peers AS10, AS20 (AS10 also hosts a collector vantage)
//	AS100 (member, port 1) customer of AS10, originates 50.1.0.0/16
//	AS200 (member, port 2) customer of AS20, originates 60.1.0.0/16
//	AS300 (member, port 3) customer of AS100, originates 70.1.0.0/16
func testRIB() *bgp.RIB {
	r := bgp.NewRIB()
	add := func(prefix string, path ...bgp.ASN) {
		r.AddAnnouncement(netx.MustParsePrefix(prefix), path)
	}
	// Collector vantages sit at the tier-1s only (stub vantages would
	// put members leftmost on full-table paths, inflating their full
	// cones to everything — the inflation artifact §4.3 discusses).
	// 70.1/16 (AS300): the member route-server session [100, 300] plus
	// collector views.
	add("70.1.0.0/16", 100, 300)
	add("70.1.0.0/16", 10, 100, 300)
	add("70.1.0.0/16", 20, 10, 100, 300)
	// 50.1/16 (AS100).
	add("50.1.0.0/16", 10, 100)
	add("50.1.0.0/16", 20, 10, 100)
	// 60.1/16 (AS200).
	add("60.1.0.0/16", 20, 200)
	add("60.1.0.0/16", 10, 20, 200)
	// Tier-1 own space.
	add("80.0.0.0/12", 20, 10)
	add("81.0.0.0/12", 10, 20)
	return r
}

var testMembers = []MemberInfo{
	{ASN: 100, Port: 1},
	{ASN: 200, Port: 2},
	{ASN: 300, Port: 3},
}

func testPipeline(t *testing.T, opts Options) *Pipeline {
	t.Helper()
	p, err := NewPipeline(testRIB(), testMembers, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func flowFrom(src string, port uint32) ipfix.Flow {
	return ipfix.Flow{
		SrcAddr: netx.MustParseAddr(src),
		DstAddr: netx.MustParseAddr("60.1.0.9"),
		Packets: 1, Bytes: 60,
		Ingress: port,
	}
}

func TestClassifyBogon(t *testing.T) {
	p := testPipeline(t, Options{})
	for _, src := range []string{"10.1.2.3", "192.168.1.1", "224.0.0.5", "240.1.1.1"} {
		v := p.Classify(flowFrom(src, 1))
		if v.Class != ClassBogon {
			t.Errorf("Classify(%s) = %v, want bogon", src, v.Class)
		}
		if !v.KnownMember {
			t.Errorf("Classify(%s) lost member", src)
		}
	}
}

func TestClassifyUnrouted(t *testing.T) {
	p := testPipeline(t, Options{})
	for _, src := range []string{"9.9.9.9", "50.2.0.1", "223.100.1.1"} {
		v := p.Classify(flowFrom(src, 1))
		if v.Class != ClassUnrouted {
			t.Errorf("Classify(%s) = %v, want unrouted", src, v.Class)
		}
		if v.SrcOrigin != 0 {
			t.Errorf("unrouted source attributed origin %v", v.SrcOrigin)
		}
	}
}

func TestClassifyValidOwnSpace(t *testing.T) {
	p := testPipeline(t, Options{})
	v := p.Classify(flowFrom("50.1.2.3", 1)) // AS100 sourcing own prefix
	if v.Class != ClassValid {
		t.Fatalf("own space = %v (invalid=%v)", v.Class, v.Invalid)
	}
	if v.SrcOrigin != 100 {
		t.Fatalf("origin = %v", v.SrcOrigin)
	}
}

func TestClassifyValidCustomerSpace(t *testing.T) {
	p := testPipeline(t, Options{})
	// AS100 forwards customer AS300's space: valid under all approaches.
	v := p.Classify(flowFrom("70.1.9.9", 1))
	if v.Class != ClassValid {
		t.Fatalf("customer space = %v (invalid=%v)", v.Class, v.Invalid)
	}
}

func TestClassifyInvalidForeignSpace(t *testing.T) {
	p := testPipeline(t, Options{})
	// AS300 (stub) sourcing AS200's space: invalid everywhere.
	v := p.Classify(flowFrom("60.1.2.3", 3))
	if v.Class != ClassInvalid {
		t.Fatalf("foreign space = %v", v.Class)
	}
	for a := ApproachNaive; a < numApproaches; a++ {
		if !v.InvalidFor(a) {
			t.Errorf("approach %v missed the spoof", a)
		}
	}
}

func TestApproachOrdering(t *testing.T) {
	p := testPipeline(t, Options{})
	// AS100 sourcing AS200's space: the naive sets contain 60.1/16 for
	// AS100 (it appears on a path), so NAIVE says valid; the full cone
	// of AS100 does not contain AS200 unless a path placed 100 upstream
	// of 200 — [100, 10, 20, 200] does exactly that, so FULL is valid
	// too. The invariant testable here: FULL invalid implies CC invalid
	// implies... exercise with AS200 sourcing AS100's space instead.
	v := p.Classify(flowFrom("50.1.2.3", 2))
	// Containment: anything valid under CC must be valid under FULL.
	if !v.Invalid[ApproachFull] && v.Invalid[ApproachCC] {
		// valid FULL + invalid CC is allowed (FULL is bigger)...
		t.Log("CC stricter than FULL, as expected")
	}
	if v.Invalid[ApproachFull] && !v.Invalid[ApproachCC] {
		t.Error("valid under CC but invalid under FULL violates containment")
	}
}

func TestClassifyUnknownPort(t *testing.T) {
	p := testPipeline(t, Options{})
	v := p.Classify(flowFrom("60.1.2.3", 99))
	if v.KnownMember {
		t.Fatal("unknown port marked as member")
	}
	if v.Class != ClassValid {
		t.Fatalf("unknown member class = %v", v.Class)
	}
	// Bogon/unrouted still classified for unknown members.
	if got := p.Classify(flowFrom("10.0.0.1", 99)); got.Class != ClassBogon {
		t.Fatalf("bogon via unknown port = %v", got.Class)
	}
}

func TestAllowSourceWhitelists(t *testing.T) {
	p := testPipeline(t, Options{})
	f := flowFrom("60.1.2.3", 3)
	if v := p.Classify(f); v.Class != ClassInvalid {
		t.Fatalf("precondition failed: %v", v.Class)
	}
	if err := p.AllowSource(300, netx.MustParsePrefix("60.1.0.0/16")); err != nil {
		t.Fatal(err)
	}
	if v := p.Classify(f); v.Class != ClassValid {
		t.Fatalf("whitelisted source still %v", v.Class)
	}
	if err := p.AllowSource(999, netx.MustParsePrefix("60.1.0.0/16")); err == nil {
		t.Fatal("AllowSource accepted unknown member")
	}
}

func TestRouterTagging(t *testing.T) {
	routers := netx.NewAddrSet([]netx.Addr{netx.MustParseAddr("60.1.0.254")})
	p := testPipeline(t, Options{Routers: routers})
	v := p.Classify(flowFrom("60.1.0.254", 3))
	if !v.RouterIP {
		t.Fatal("router source not tagged")
	}
	if v2 := p.Classify(flowFrom("60.1.0.1", 3)); v2.RouterIP {
		t.Fatal("non-router source tagged")
	}
}

func TestCoveringLessSpecificValidates(t *testing.T) {
	// A PA sub-prefix: AS300 announces 50.1.128.0/24 (slice of AS100's
	// block). Traffic from that slice sent by AS200... remains invalid;
	// but traffic sent by AS100 must stay valid even though the most
	// specific origin is AS300 (AS300 IS in AS100's cone here, so craft
	// the reverse: most-specific origin NOT in cone, covering origin in
	// cone).
	r := testRIB()
	// AS999 (not connected to AS100's cone paths except via tier-1)
	// announces a /24 inside AS100's block.
	r.AddAnnouncement(netx.MustParsePrefix("50.1.200.0/24"), []bgp.ASN{20, 999})
	r.AddAnnouncement(netx.MustParsePrefix("50.1.200.0/24"), []bgp.ASN{10, 20, 999})
	p, err := NewPipeline(r, testMembers, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := p.Classify(flowFrom("50.1.200.7", 1)) // AS100 sends from the slice
	if v.SrcOrigin != 999 {
		t.Fatalf("most specific origin = %v, want 999", v.SrcOrigin)
	}
	// The covering 50.1.0.0/16 (origin AS100) legitimizes the traffic
	// under CC and FULL.
	if v.Invalid[ApproachCC] || v.Invalid[ApproachFull] {
		t.Fatalf("covering prefix ignored: %+v", v.Invalid)
	}
}

func TestNewPipelineErrors(t *testing.T) {
	if _, err := NewPipeline(testRIB(), nil, Options{}); err == nil {
		t.Fatal("empty member list accepted")
	}
	if _, err := NewPipeline(bgp.NewRIB(), testMembers, Options{}); err == nil {
		t.Fatal("empty RIB accepted")
	}
	// A table and an origin slab that did not come from the same
	// announcements (hand-built here: one more prefix on AS200's paths than
	// the slab holds) must fail the member compile, naming both.
	p := testPipeline(t, Options{})
	stray := netx.MustParsePrefix("99.9.0.0/16")
	r := testRIB()
	r.AddAnnouncement(stray, []bgp.ASN{20, 200})
	p.anns = r.Announcements()
	p.hops, p.runEnds = r.Hops()
	prefixes, _ := r.OriginAssignments()
	err := p.compileMembers(testMembers, Options{}, nil, prefixes, 1)
	if err == nil || !strings.Contains(err.Error(), "AS200") || !strings.Contains(err.Error(), stray.String()) {
		t.Fatalf("member compile over a naive prefix missing from the origin table: %v, want an error naming AS200 and %s", err, stray)
	}
}

func TestOrgMergeValidatesSiblings(t *testing.T) {
	// AS300 and AS200 are siblings of one organisation: AS300 sourcing
	// AS200's space becomes valid once orgs are merged.
	orgs := [][]bgp.ASN{{200, 300}}
	p := testPipeline(t, Options{Orgs: orgs})
	v := p.Classify(flowFrom("60.1.2.3", 3))
	if v.Invalid[ApproachFull] || v.Invalid[ApproachCC] {
		t.Fatalf("org sibling still invalid: %+v", v.Invalid)
	}
	// Ablation: without the org groups it must be invalid again.
	p2 := testPipeline(t, Options{Orgs: nil})
	if v2 := p2.Classify(flowFrom("60.1.2.3", 3)); v2.Class != ClassInvalid {
		t.Fatalf("org-merge ablation broken: %v", v2.Class)
	}
}

func TestFilterList(t *testing.T) {
	p := testPipeline(t, Options{})

	// Stub member AS300: the full-cone ACL is exactly its own space.
	acl, err := p.FilterList(300, ApproachFull)
	if err != nil {
		t.Fatal(err)
	}
	if len(acl) != 1 || acl[0] != netx.MustParsePrefix("70.1.0.0/16") {
		t.Fatalf("ACL(300, full) = %v", acl)
	}

	// Transit member AS100: own space + customer AS300's space.
	acl, err = p.FilterList(100, ApproachFull)
	if err != nil {
		t.Fatal(err)
	}
	set := netx.IntervalSetOfPrefixes(acl...)
	for _, in := range []string{"50.1.2.3", "70.1.0.9"} {
		if !set.Contains(netx.MustParseAddr(in)) {
			t.Errorf("ACL(100) missing %s", in)
		}
	}
	if set.Contains(netx.MustParseAddr("60.1.0.1")) {
		t.Error("ACL(100) grants AS200's space")
	}

	// ACL consistency with the classifier: routed sources inside the ACL
	// are exactly those the pipeline considers FULL-valid.
	for _, src := range []string{"50.1.9.9", "60.1.9.9", "70.1.9.9", "80.1.1.1"} {
		a := netx.MustParseAddr(src)
		v := p.Classify(flowFrom(src, 1))
		if v.Class == ClassUnrouted || v.Class == ClassBogon {
			continue
		}
		if set.Contains(a) == v.Invalid[ApproachFull] {
			t.Errorf("ACL and classifier disagree on %s (inACL=%v invalid=%v)",
				src, set.Contains(a), v.Invalid[ApproachFull])
		}
	}

	// The naive ACL is the prefixes on whose paths the member appears:
	// AS100 is on 50.1/16's and on 70.1/16's.
	acl, err = p.FilterList(100, ApproachNaive)
	if err != nil {
		t.Fatal(err)
	}
	if want := []netx.Prefix{netx.MustParsePrefix("50.1.0.0/16"), netx.MustParsePrefix("70.1.0.0/16")}; !slices.Equal(acl, want) {
		t.Fatalf("ACL(100, naive) = %v, want %v", acl, want)
	}

	// §4.4 whitelists surface in the ACL.
	if err := p.AllowSource(300, netx.MustParsePrefix("60.1.0.0/16")); err != nil {
		t.Fatal(err)
	}
	acl, err = p.FilterList(300, ApproachFull)
	if err != nil {
		t.Fatal(err)
	}
	if !netx.IntervalSetOfPrefixes(acl...).Contains(netx.MustParseAddr("60.1.2.3")) {
		t.Fatal("whitelist missing from ACL")
	}

	if _, err := p.FilterList(9999, ApproachFull); err == nil {
		t.Fatal("unknown member accepted")
	}
	if _, err := p.FilterList(100, Approach(99)); err == nil {
		t.Fatal("unknown approach accepted")
	}

	// A MOAS prefix lists under the origin Classify resolves it to, and
	// bogon space is never listed, not even whitelisted. AS300 announces
	// 90.1/16 once and AS200 twice, so AS200 wins it; AS300 also announces
	// the bogon 10/8, and a §4.4 correction whitelists part of it.
	rib := testRIB()
	rib.AddAnnouncement(netx.MustParsePrefix("90.1.0.0/16"), []bgp.ASN{100, 300})
	rib.AddAnnouncement(netx.MustParsePrefix("90.1.0.0/16"), []bgp.ASN{20, 200})
	rib.AddAnnouncement(netx.MustParsePrefix("90.1.0.0/16"), []bgp.ASN{10, 20, 200})
	rib.AddAnnouncement(netx.MustParsePrefix("10.0.0.0/8"), []bgp.ASN{100, 300})
	p, err = NewPipeline(rib, testMembers, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AllowSource(300, netx.MustParsePrefix("10.1.0.0/16")); err != nil {
		t.Fatal(err)
	}
	// Sources in every prefix of the table, the bogon included: for each
	// member and approach, no bogon is listed, and a routed source is
	// listed exactly when Classify calls it valid.
	srcs := []string{"10.1.2.3", "50.1.9.9", "60.1.9.9", "70.1.9.9", "80.1.1.1", "81.1.1.1", "90.1.2.3", "9.9.9.9"}
	for _, m := range testMembers {
		for a := ApproachNaive; a < numApproaches; a++ {
			acl, err := p.FilterList(m.ASN, a)
			if err != nil {
				t.Fatal(err)
			}
			set := netx.IntervalSetOfPrefixes(acl...)
			for _, src := range srcs {
				v := p.Classify(flowFrom(src, m.Port))
				listed := set.Contains(netx.MustParseAddr(src))
				switch {
				case v.Class == ClassBogon && listed:
					t.Errorf("FilterList(%s, %s) lists bogon %s", m.ASN, a, src)
				case v.Class == ClassBogon || v.Class == ClassUnrouted:
				case listed == v.Invalid[a]:
					t.Errorf("FilterList(%s, %s): %s listed=%v, Classify invalid=%v", m.ASN, a, src, listed, v.Invalid[a])
				}
			}
		}
	}
}

func TestFilterListApproachOrdering(t *testing.T) {
	p := testPipeline(t, Options{})
	// The CC ACL is contained in the FULL ACL for every member.
	for _, m := range testMembers {
		ccACL, err := p.FilterList(m.ASN, ApproachCC)
		if err != nil {
			t.Fatal(err)
		}
		fullACL, err := p.FilterList(m.ASN, ApproachFull)
		if err != nil {
			t.Fatal(err)
		}
		cc := netx.IntervalSetOfPrefixes(ccACL...)
		full := netx.IntervalSetOfPrefixes(fullACL...)
		if !full.ContainsSet(cc) {
			t.Fatalf("CC ACL of %s escapes the FULL ACL", m.ASN)
		}
	}
}

// TestFilterListConcurrent: FilterList only reads the compiled pipeline,
// so concurrent calls must agree with sequential ones (the test matters
// under -race).
func TestFilterListConcurrent(t *testing.T) {
	type call struct {
		asn bgp.ASN
		a   Approach
	}
	var calls []call
	for _, m := range testMembers {
		for a := ApproachNaive; a < numApproaches; a++ {
			calls = append(calls, call{m.ASN, a})
		}
	}
	want := make([][]netx.Prefix, len(calls))
	seq := testPipeline(t, Options{})
	for i, c := range calls {
		acl, err := seq.FilterList(c.asn, c.a)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = acl
	}
	p := testPipeline(t, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, c := range calls {
				acl, err := p.FilterList(c.asn, c.a)
				if err != nil || !reflect.DeepEqual(acl, want[i]) {
					t.Errorf("FilterList(%s, %s) = %v, %v; sequentially %v", c.asn, c.a, acl, err, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
