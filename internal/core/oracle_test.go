package core

import (
	"math/rand"
	"testing"

	"spoofscope/internal/astopo"
	"spoofscope/internal/bgp"
	"spoofscope/internal/bogon"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
)

// figure3Oracle is the paper's Figure 3 sequence written plainly over data
// no prefix index touches: the bogon list as an interval set, the routed
// table and each member's naive space as Go maps probed once per prefix
// length, the naive spaces built by astopo.NewNaiveIndex. It is the
// reference Pipeline.Classify is held to — independent of FlatLPM, of the
// merged bogon sentinel and its per-entry flags, of the naive entry bitsets
// and the table walk that fills them, and of the precomputed chains. What it
// shares with the pipeline is what no index is involved in: the AS graph's
// ASN → index map and the per-member cone bitsets. The router addresses are the ones the
// pipeline was compiled with, held in a Go map of the oracle's own.
type figure3Oracle struct {
	p       *Pipeline
	bogons  netx.IntervalSet
	routed  map[netx.Prefix]bgp.ASN
	naive   map[*memberState]map[netx.Prefix]struct{}
	routers map[netx.Addr]bool
}

func newFigure3Oracle(p *Pipeline, rib *bgp.RIB, bogons *bogon.Set, routers ...netx.Addr) *figure3Oracle {
	o := &figure3Oracle{
		p:       p,
		bogons:  bogons.Space(),
		routed:  make(map[netx.Prefix]bgp.ASN),
		naive:   make(map[*memberState]map[netx.Prefix]struct{}),
		routers: make(map[netx.Addr]bool),
	}
	for _, a := range routers {
		o.routers[a] = true
	}
	prefixes, origins := rib.OriginAssignments()
	for i, pr := range prefixes {
		o.routed[pr] = origins[i]
	}
	naive := astopo.NewNaiveIndex(p.graph, rib.Announcements())
	for _, ms := range p.byPort {
		if ms.asIdx < 0 {
			continue
		}
		set := make(map[netx.Prefix]struct{})
		for _, pr := range naive.ValidPrefixes(ms.asIdx) {
			set[pr] = struct{}{}
		}
		o.naive[ms] = set
	}
	return o
}

func (o *figure3Oracle) classify(f ipfix.Flow) (v Verdict) {
	src := f.SrcAddr
	ms, known := o.p.byPort[f.Ingress]

	// (1) Bogon, before anything routed is consulted.
	if o.bogons.Contains(src) {
		v.Class = ClassBogon
		v.KnownMember = known
		return v
	}
	// (2) Routed: every announced prefix covering src, shortest first.
	var covering []netx.Prefix
	for bits := 0; bits <= 32; bits++ {
		pr := netx.PrefixFrom(src, uint8(bits))
		if _, ok := o.routed[pr]; ok {
			covering = append(covering, pr)
		}
	}
	if len(covering) == 0 {
		v.Class = ClassUnrouted
		v.KnownMember = known
		return v
	}
	v.SrcOrigin = o.routed[covering[len(covering)-1]]
	v.RouterIP = o.routers[src]
	// (3) The member's valid space under each approach.
	if !known {
		v.Class = ClassValid
		return v
	}
	v.KnownMember = true
	if ms.asIdx < 0 {
		v.Class = ClassValid
		return v
	}
	for _, allowed := range ms.extra {
		if allowed.Contains(src) {
			v.Class = ClassValid
			return v
		}
	}
	naiveValid, ccValid, fcValid := false, false, false
	for bits := 0; bits <= 32; bits++ {
		if _, ok := o.naive[ms][netx.PrefixFrom(src, uint8(bits))]; ok {
			naiveValid = true
		}
	}
	for _, pr := range covering {
		if oi := o.p.graph.Index(o.routed[pr]); oi >= 0 {
			ccValid = ccValid || ms.validCC.Test(oi)
			fcValid = fcValid || ms.validFC.Test(oi)
		}
	}
	v.Invalid = [numApproaches]bool{!naiveValid, !ccValid, !fcValid}
	if !naiveValid || !ccValid || !fcValid {
		v.Class = ClassInvalid
	}
	return v
}

// TestPipelineMatchesOracle: the compiled pipeline must classify every flow
// of the end-to-end scenario exactly as the plain Figure 3 sequence does.
func TestPipelineMatchesOracle(t *testing.T) {
	s, rib, p, flows, _ := buildEndToEndRIB(t)
	oracle := newFigure3Oracle(p, rib, bogon.NewReferenceSet(), endToEndRouters(s)...)
	classes := map[Class]int{}
	for i, f := range flows {
		got, want := p.Classify(f), oracle.classify(f)
		if got != want {
			t.Fatalf("flow %d (%v via port %d): pipeline %+v, oracle %+v", i, f.SrcAddr, f.Ingress, got, want)
		}
		classes[want.Class]++
	}
	for _, c := range []Class{ClassValid, ClassBogon, ClassUnrouted, ClassInvalid} {
		if classes[c] == 0 {
			t.Errorf("scenario never produced a %v flow; the comparison is vacuous for it", c)
		}
	}
}

// TestPipelineMatchesOracleOnHostileTable holds the pipeline to the oracle on
// a hand-built table made of what the compiled form had to invent an answer
// for, and the scenario never contains: announced prefixes inside, equal to
// and covering bogon ranges (the merged sentinel, the per-entry bogon flags,
// bogon-over-announced precedence); a nesting chain deeper than any /8../24
// table can produce; a naive-valid less-specific under a foreign
// more-specific (the entry bitset has to look at the whole chain); MOAS;
// a member invisible in BGP, an unmapped port, and a §4.4 whitelist.
func TestPipelineMatchesOracleOnHostileTable(t *testing.T) {
	rib := bgp.NewRIB()
	rib.MinBits, rib.MaxBits = 0, 32
	add := func(prefix string, path ...bgp.ASN) {
		rib.AddAnnouncement(netx.MustParsePrefix(prefix), path)
	}
	// Topology: tier-1s 10 and 20 peer; 100 and 200 are their customers, 300
	// is 100's customer.
	add("50.1.0.0/16", 10, 100)
	add("50.1.0.0/16", 20, 10, 100)
	add("60.1.0.0/16", 20, 200)
	add("60.1.0.0/16", 10, 20, 200)
	add("70.1.0.0/16", 100, 300)
	add("70.1.0.0/16", 20, 10, 100, 300)
	// A provider block with a customer's more-specific under a different
	// origin, and a third party's more-specific inside that.
	add("50.0.0.0/8", 20, 10)
	add("50.1.128.0/17", 10, 100, 300)
	add("50.1.130.0/24", 10, 20, 200)
	// MOAS: one prefix, two origins, 200 seen more often.
	add("90.1.0.0/16", 10, 100)
	add("90.1.0.0/16", 20, 200)
	add("90.1.0.0/16", 10, 20, 200)
	// 25 nested prefixes, /4 down to /28. The 17 shortest are 200's; only
	// past the 17th does 100 appear.
	for bits := uint8(4); bits <= 28; bits++ {
		pr := netx.PrefixFrom(netx.MustParseAddr("101.77.33.17"), bits)
		if bits <= 20 {
			rib.AddAnnouncement(pr, []bgp.ASN{20, 200})
		} else {
			rib.AddAnnouncement(pr, []bgp.ASN{10, 100})
		}
	}
	// Announced space against the bogon list: inside 10/8, equal to
	// TEST-NET-1, covering 192.168/16 and friends (and the nest's /4../7
	// cover 100.64/10).
	add("10.1.0.0/16", 10, 100)
	add("192.0.2.0/24", 20, 200)
	add("192.0.0.0/8", 10, 100, 300)
	add("240.0.0.0/3", 20, 10)

	members := []MemberInfo{
		{ASN: 100, Port: 1}, {ASN: 200, Port: 2}, {ASN: 300, Port: 3},
		{ASN: 999, Port: 4}, // not in any path
	}
	p, err := NewPipeline(rib, members, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AllowSource(200, netx.MustParsePrefix("70.1.4.0/22")); err != nil {
		t.Fatal(err)
	}
	if err := p.AllowSource(200, netx.MustParsePrefix("50.1.130.128/25")); err != nil {
		t.Fatal(err)
	}
	oracle := newFigure3Oracle(p, rib, bogon.NewReferenceSet())

	// Probe both edges of every announced, bogon and whitelisted prefix, one
	// address either side of each, and a random scatter.
	var probes []netx.Addr
	edges := func(pr netx.Prefix) {
		probes = append(probes, pr.First(), pr.Last(), pr.First()-1, pr.Last()+1)
	}
	routed, _ := rib.OriginAssignments()
	for _, pr := range routed {
		edges(pr)
	}
	for _, pr := range bogon.NewReferenceSet().Prefixes() {
		edges(pr)
	}
	edges(netx.MustParsePrefix("70.1.4.0/22"))
	edges(netx.MustParsePrefix("50.1.130.128/25"))
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 4096; i++ {
		probes = append(probes, netx.Addr(rng.Uint32()))
	}
	classes := map[Class]int{}
	for _, src := range probes {
		for port := uint32(1); port <= 5; port++ { // 5 is unmapped
			f := ipfix.Flow{SrcAddr: src, Ingress: port, Packets: 1, Bytes: 60}
			got, want := p.Classify(f), oracle.classify(f)
			if got != want {
				t.Fatalf("%v via port %d: pipeline %+v, oracle %+v", src, port, got, want)
			}
			classes[want.Class]++
		}
	}
	for _, c := range []Class{ClassValid, ClassBogon, ClassUnrouted, ClassInvalid} {
		if classes[c] == 0 {
			t.Errorf("no probe classified %v", c)
		}
	}
	// The cases the table was built for, spelled out against the oracle so a
	// shared blind spot cannot hide them.
	for _, c := range []struct {
		src  string
		port uint32
		want Class
	}{
		{"10.1.2.3", 1, ClassBogon},     // announced inside a bogon range
		{"192.0.2.9", 2, ClassBogon},    // announced and bogon, same prefix
		{"192.168.7.7", 3, ClassBogon},  // bogon under an announced cover
		{"192.5.5.5", 3, ClassValid},    // the cover itself, off the bogon ranges
		{"100.64.32.17", 2, ClassBogon}, // CGN range under the nest's /4../7
		{"101.77.33.17", 1, ClassValid}, // 25 covers deep; 100's start at the 18th
		{"101.0.0.1", 1, ClassInvalid},  // the nest's shallow end: 200's covers only
		{"241.0.0.1", 1, ClassBogon},    // class E under the announced /3
		{"50.1.130.7", 3, ClassValid},   // 300's /17 covers 200's /24: naive-valid by a less-specific
		{"50.1.130.200", 2, ClassValid}, // whitelisted
		{"9.9.9.9", 4, ClassUnrouted},   // invisible member, unrouted source
		{"60.1.0.1", 4, ClassValid},     // invisible member: everything routed is valid
		{"60.1.0.1", 5, ClassValid},     // unmapped port
		{"60.1.0.1", 3, ClassInvalid},   // 200's space from 300
		{"70.1.5.5", 2, ClassValid},     // whitelisted for 200
		{"70.1.9.9", 2, ClassInvalid},   // just outside the whitelist
	} {
		f := ipfix.Flow{SrcAddr: netx.MustParseAddr(c.src), Ingress: c.port}
		if got := oracle.classify(f).Class; got != c.want {
			t.Errorf("oracle: %s via port %d = %v, want %v", c.src, c.port, got, c.want)
		}
	}
}
