package scenario

import (
	"math/rand"
	"sort"

	"spoofscope/internal/bgp"
	"spoofscope/internal/bogon"
	"spoofscope/internal/netx"
	"spoofscope/internal/org"
)

// Tier is an AS's position in the synthetic hierarchy.
type Tier int

// Hierarchy tiers.
const (
	Tier1 Tier = iota
	Transit
	Stub
)

func (t Tier) String() string {
	switch t {
	case Tier1:
		return "tier1"
	case Transit:
		return "transit"
	default:
		return "stub"
	}
}

// AS is one synthesized autonomous system with its ground truth.
type AS struct {
	ASN  bgp.ASN
	Tier Tier

	// Dense indices of neighbours, by relationship (ground truth).
	Providers []int
	Customers []int
	Peers     []int
	// Siblings are same-organization ASes (all pairs of the org).
	Siblings []int
	// VisibleSiblings are the subset connected by BGP-visible internal
	// links over which the two ASes provide mutual transit. The remaining
	// sibling pairs exchange traffic over links invisible to every
	// inference approach.
	VisibleSiblings []int

	// Announced prefixes (origined into BGP) and held prefixes (allocated
	// but never announced — sources drawing from them appear Unrouted).
	Announced []netx.Prefix
	Held      []netx.Prefix

	// SelectiveExport, when non-nil, maps a prefix to the subset of
	// provider indices it is announced to (the paper's §4.4 asymmetric
	// multihoming). Prefixes not in the map export everywhere.
	SelectiveExport map[netx.Prefix][]int

	OrgIndex int // index into the org dataset, -1 if single-AS org
}

// topology is the ground-truth AS graph plus address plan.
type topology struct {
	ases []AS
	// adj is each AS's neighbours as propagate walks them.
	adj []neighbours
	// byASN maps ASN to dense index.
	byASN map[bgp.ASN]int
	orgs  *org.Dataset
	// routable is all address space handed to ASes (announced or held);
	// everything outside it (minus bogons) is never-allocated space.
	routable netx.IntervalSet
}

// neighbours is one AS's routing adjacency, each list sorted once in
// index order (which is ASN order). up is the climb (providers, then
// visible siblings), down the descent (customers, then visible siblings).
// AS keeps its lists in link order, which the traffic generator reads.
type neighbours struct{ up, peers, down []int }

// buildTopology synthesizes the AS graph, organizations and address plan.
func buildTopology(cfg Config, rng *rand.Rand) *topology {
	nT1, nTr, nSt := cfg.NumTier1, cfg.NumTransit, cfg.NumStub
	total := nT1 + nTr + nSt
	t := &topology{
		ases:  make([]AS, total),
		byASN: make(map[bgp.ASN]int, total),
	}
	for i := range t.ases {
		a := &t.ases[i]
		switch {
		case i < nT1:
			a.ASN = bgp.ASN(10 + 10*i) // 10, 20, 30, ...
			a.Tier = Tier1
		case i < nT1+nTr:
			a.ASN = bgp.ASN(1000 + (i - nT1))
			a.Tier = Transit
		default:
			a.ASN = bgp.ASN(10000 + (i - nT1 - nTr))
			a.Tier = Stub
		}
		a.OrgIndex = -1
		t.byASN[a.ASN] = i
	}

	link := func(provider, customer int) {
		t.ases[provider].Customers = append(t.ases[provider].Customers, customer)
		t.ases[customer].Providers = append(t.ases[customer].Providers, provider)
	}
	peer := func(a, b int) {
		t.ases[a].Peers = append(t.ases[a].Peers, b)
		t.ases[b].Peers = append(t.ases[b].Peers, a)
	}

	// Tier-1 clique.
	for i := 0; i < nT1; i++ {
		for j := i + 1; j < nT1; j++ {
			peer(i, j)
		}
	}

	// Transit tier: providers from tier-1 (1-2), occasionally another
	// transit; lateral peering among transits.
	for i := nT1; i < nT1+nTr; i++ {
		link(rng.Intn(nT1), i)
		if rng.Float64() < 0.45 {
			p := rng.Intn(nT1)
			if !contains(t.ases[i].Providers, p) {
				link(p, i)
			}
		}
		// A quarter of transits also buy from an earlier transit,
		// deepening the hierarchy.
		if i > nT1 && rng.Float64() < 0.25 {
			p := nT1 + rng.Intn(i-nT1)
			if p != i && !contains(t.ases[i].Providers, p) {
				link(p, i)
			}
		}
	}
	for i := nT1; i < nT1+nTr; i++ {
		// Peer with ~8% of other transits.
		for j := i + 1; j < nT1+nTr; j++ {
			if rng.Float64() < 0.08 {
				peer(i, j)
			}
		}
	}

	// Stubs: 1-2 transit providers (20% multihomed), a few directly under
	// tier-1 so tier-1 degrees stay dominant.
	for i := nT1 + nTr; i < total; i++ {
		var p int
		if rng.Float64() < 0.06 {
			p = rng.Intn(nT1)
		} else {
			p = nT1 + rng.Intn(nTr)
		}
		link(p, i)
		if rng.Float64() < 0.45 { // multihomed
			q := nT1 + rng.Intn(nTr)
			if q != p && !contains(t.ases[i].Providers, q) {
				link(q, i)
			}
		}
	}

	t.buildOrgs(cfg, rng)
	t.allocateAddresses(cfg, rng)
	t.pickSelectiveAnnouncers(cfg, rng)
	t.adj = make([]neighbours, total)
	for i, a := range t.ases {
		sibs := sortedCopy(a.VisibleSiblings)
		t.adj[i] = neighbours{
			up:    append(sortedCopy(a.Providers), sibs...),
			peers: sortedCopy(a.Peers),
			down:  append(sortedCopy(a.Customers), sibs...),
		}
	}
	return t
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// buildOrgs creates the AS-to-organization dataset. A fraction of transit
// ASes own 1-3 sibling ASes (drawn from stubs); the sibling links are NOT
// added to the BGP-visible topology — they are hidden internal links, which
// is exactly what makes the multi-AS-org correction matter.
func (t *topology) buildOrgs(cfg Config, rng *rand.Rand) {
	var orgs []org.Org
	nT1 := 0
	for _, a := range t.ases {
		if a.Tier == Tier1 {
			nT1++
		}
	}
	assigned := make(map[int]bool)
	addOrg := func(name string, members []int) {
		idx := len(orgs)
		var asns []bgp.ASN
		for _, m := range members {
			asns = append(asns, t.ases[m].ASN)
			t.ases[m].OrgIndex = idx
			assigned[m] = true
		}
		orgs = append(orgs, org.Org{
			ID:   orgID(idx),
			Name: name,
			ASNs: asns,
		})
	}

	// Multi-AS orgs around a subset of transits.
	var stubsFree []int
	for i, a := range t.ases {
		if a.Tier == Stub {
			stubsFree = append(stubsFree, i)
		}
	}
	rng.Shuffle(len(stubsFree), func(i, j int) {
		stubsFree[i], stubsFree[j] = stubsFree[j], stubsFree[i]
	})
	next := 0
	for i, a := range t.ases {
		if a.Tier != Transit || rng.Float64() >= cfg.MultiASOrgFraction {
			continue
		}
		n := 1 + rng.Intn(3)
		members := []int{i}
		for k := 0; k < n && next < len(stubsFree); k++ {
			members = append(members, stubsFree[next])
			next++
		}
		if len(members) < 2 {
			continue
		}
		addOrg("MultiNet-"+t.ases[i].ASN.String(), members)
		// Record sibling links. Most are visible in BGP as ordinary
		// peerings (so the Full Cone covers them without org merging,
		// while the Customer Cone — which excludes peering — needs the
		// org correction: the §4.3 asymmetry). A minority stay hidden
		// internal links invisible to every approach.
		for x := 0; x < len(members); x++ {
			for y := x + 1; y < len(members); y++ {
				mx, my := members[x], members[y]
				t.ases[mx].Siblings = append(t.ases[mx].Siblings, my)
				t.ases[my].Siblings = append(t.ases[my].Siblings, mx)
				if rng.Float64() < 0.7 {
					t.ases[mx].VisibleSiblings = append(t.ases[mx].VisibleSiblings, my)
					t.ases[my].VisibleSiblings = append(t.ases[my].VisibleSiblings, mx)
				}
			}
		}
	}
	// Single-AS orgs for everyone else.
	for i := range t.ases {
		if !assigned[i] {
			addOrg("Org-"+t.ases[i].ASN.String(), []int{i})
		}
	}
	t.orgs = org.NewDataset(orgs)
}

func orgID(i int) string { return "ORG-" + string(rune('A'+i%26)) + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [12]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// allocateAddresses carves the routable IPv4 space into per-AS blocks.
// Tier-1s get /8, transits /11-/13, stubs /16-/20 (a scaled-down Internet:
// with ~1/40 of the real AS count, per-AS blocks are enlarged so that the
// routed share of the address space stays the dominant category, as in
// Figure 1a). Bogon-overlapping space is skipped; gaps stay unallocated
// (never-routed). A fraction of ASes additionally hold unannounced space,
// and some stubs get a provider-assigned (PA) sub-prefix of their
// provider's block.
func (t *topology) allocateAddresses(cfg Config, rng *rand.Rand) {
	bogons := bogon.NewReferenceSet()
	cursor := uint32(netx.AddrFrom4(1, 0, 0, 0))
	var routable []netx.Interval

	alloc := func(bits uint8) (netx.Prefix, bool) {
		size := uint32(1) << (32 - bits)
		for {
			// Align the cursor.
			if cursor%size != 0 {
				cursor = (cursor/size + 1) * size
			}
			if cursor >= uint32(netx.AddrFrom4(224, 0, 0, 0)) {
				return netx.Prefix{}, false // out of unicast space
			}
			p := netx.PrefixFrom(netx.Addr(cursor), bits)
			cursor += size
			if bogons.Contains(p.First()) || bogons.Contains(p.Last()) {
				continue // skip bogon-overlapping blocks
			}
			return p, true
		}
	}
	skipGap := func(frac float64, bits uint8) {
		// Leave a hole of the given size with probability frac: this space
		// is routable but never allocated, enlarging the Unrouted pool.
		if rng.Float64() < frac {
			size := uint32(1) << (32 - bits)
			cursor += size
		}
	}

	for i := range t.ases {
		a := &t.ases[i]
		var bits uint8
		var extra int
		switch a.Tier {
		case Tier1:
			bits, extra = 8, 1
		case Transit:
			bits, extra = uint8(11+rng.Intn(3)), rng.Intn(2)
		default:
			bits = uint8(16 + rng.Intn(5))
			if rng.Float64() < 0.5 {
				extra = 1 // many edge networks announce a second block
			}
		}
		p, ok := alloc(bits)
		if !ok {
			break
		}
		a.Announced = append(a.Announced, p)
		routable = append(routable, netx.IntervalOf(p))
		// Secondary blocks stay within the global /8../24 announcement
		// sanity window (§3.3) or they would count as unrouted.
		extraBits := bits + 2
		if extraBits > 24 {
			extraBits = 24
		}
		for e := 0; e < extra; e++ {
			q, ok := alloc(extraBits)
			if !ok {
				break
			}
			a.Announced = append(a.Announced, q)
			routable = append(routable, netx.IntervalOf(q))
		}
		// Held (allocated, never announced) space.
		heldBits := bits + 1
		if heldBits > 24 {
			heldBits = 24
		}
		if rng.Float64() < cfg.HeldSpaceFraction {
			h, ok := alloc(heldBits)
			if ok {
				a.Held = append(a.Held, h)
				routable = append(routable, netx.IntervalOf(h))
			}
		}
		skipGap(0.3, bits+2)
	}

	// PA sub-allocations: ~4% of stubs announce a more-specific slice of
	// their first provider's block instead of only their own space.
	for i := range t.ases {
		a := &t.ases[i]
		if a.Tier != Stub || len(a.Providers) == 0 || rng.Float64() >= 0.04 {
			continue
		}
		prov := &t.ases[a.Providers[0]]
		if len(prov.Announced) == 0 {
			continue
		}
		block := prov.Announced[0]
		if block.Bits > 22 {
			continue
		}
		// Take a deterministic /24 slice of the provider block.
		offset := uint32(rng.Intn(int(block.NumAddrs() / 256)))
		sub := netx.PrefixFrom(block.First()+netx.Addr(offset*256), 24)
		a.Announced = append(a.Announced, sub)
	}

	t.routable = netx.NewIntervalSet(routable...)
}

// pickSelectiveAnnouncers marks multihomed ASes that announce a prefix to
// only one provider (yet route traffic via all of them).
func (t *topology) pickSelectiveAnnouncers(cfg Config, rng *rand.Rand) {
	for i := range t.ases {
		a := &t.ases[i]
		// Only multihomed ASes with at least one other, fully-exported
		// prefix: the selective prefix is a TE overlay, not the AS's only
		// visibility (a single-prefix AS going selective would vanish from
		// entire branches of the topology).
		if len(a.Providers) < 2 || len(a.Announced) < 2 {
			continue
		}
		if rng.Float64() >= cfg.SelectiveAnnounceFraction {
			continue
		}
		p := a.Announced[len(a.Announced)-1]
		only := a.Providers[rng.Intn(len(a.Providers))]
		if a.SelectiveExport == nil {
			a.SelectiveExport = make(map[netx.Prefix][]int)
		}
		a.SelectiveExport[p] = []int{only}
	}
}

// Index returns the dense index of an ASN, or -1.
func (t *topology) Index(asn bgp.ASN) int {
	if i, ok := t.byASN[asn]; ok {
		return i
	}
	return -1
}

// sortedCopy returns xs sorted, leaving xs as it is.
func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}
