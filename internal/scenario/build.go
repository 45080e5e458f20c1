package scenario

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
	"spoofscope/internal/org"
)

// BusinessType mirrors the PeeringDB-derived categories of Figure 6.
type BusinessType int

// Business types.
const (
	NSP BusinessType = iota
	ISP
	Hosting
	Content
	OtherType
)

func (b BusinessType) String() string {
	switch b {
	case NSP:
		return "NSP"
	case ISP:
		return "ISP"
	case Hosting:
		return "Hosting"
	case Content:
		return "Content"
	default:
		return "Other"
	}
}

// Member is one IXP member with its ground-truth behaviour. The classifier
// must never look at anything except ASN and Port; the rest parameterizes
// the traffic generator and the evaluation.
type Member struct {
	ASIndex int
	ASN     bgp.ASN
	Port    uint32 // IXP switch port (IPFIX ingress/egress interface ID)
	Type    BusinessType

	// TrafficScale is the member's relative share of regular traffic
	// (heavy-tailed across members).
	TrafficScale float64

	// Ground-truth egress filtering gaps: which illegitimate classes the
	// member's network lets out.
	EmitsBogon    bool
	EmitsUnrouted bool
	EmitsInvalid  bool

	// StrayRouter members leak router-interface ICMP (Figure 7's stray
	// traffic); their Invalid packets are dominated by router source IPs.
	StrayRouter bool

	// Attack roles (nonzero only when the corresponding Emits* is set).
	NTPAttackWeight   float64 // share of NTP amplification trigger traffic
	RandomFloodWeight float64 // share of random-spoof flood traffic

	// HiddenPeerAS, if >= 0, is an AS whose space this member legitimately
	// sources via a BGP-invisible link (tunnel / private interconnect).
	// The classifier will flag it Invalid; the WHOIS registry can clear it.
	HiddenPeerAS int
}

// AttackPlan fixes the attack infrastructure addresses for the window.
type AttackPlan struct {
	// NTPVictims are the spoofed source addresses of amplification
	// triggers, most-targeted first.
	NTPVictims []netx.Addr
	// NTPAmplifiers are NTP servers receiving trigger traffic.
	NTPAmplifiers []netx.Addr
	// ScanList emulates the ZMap/Sonar NTP scans of §7: it overlaps
	// NTPAmplifiers only partially.
	ScanList []netx.Addr
	// FloodVictims receive randomly-spoofed flood traffic (top-5 heavy).
	FloodVictims []netx.Addr
	// SteamVictims receive UDP floods on port 27015.
	SteamVictims []netx.Addr
}

// Scenario is the fully synthesized environment.
type Scenario struct {
	Cfg Config

	topo       *topology
	Members    []Member
	Collectors []int // dense AS indices of route-collector peers
	Anns       []bgp.Announcement
	Attack     AttackPlan

	// MeasurementServer is the AS index hosting the Spoofer-style server.
	MeasurementServer int
	// TransitFilters marks transit ASes that drop spoofed traffic arriving
	// from their customers (used by the spoofer path simulation).
	TransitFilters map[int]bool

	byPort map[uint32]int // port -> member index

	treeCache map[int]*routeTree // full-export routing trees by origin
}

// Build synthesizes a scenario.
func Build(cfg Config) (*Scenario, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	topo, err := buildTopology(cfg, rng)
	if err != nil {
		return nil, err
	}

	s := &Scenario{
		Cfg:            cfg,
		topo:           topo,
		TransitFilters: make(map[int]bool),
		byPort:         make(map[uint32]int),
	}
	s.pickCollectors(rng)
	s.pickMembers(rng)
	s.Anns = topo.announcementSet(s.Collectors, s.memberIndices())
	s.planAttacks(rng)
	s.planSpoofer(rng)
	return s, nil
}

// --- accessors ---

// NumASes returns the AS count.
func (s *Scenario) NumASes() int { return len(s.topo.ases) }

// ASInfo returns the ground-truth record for a dense AS index.
func (s *Scenario) ASInfo(i int) *AS { return &s.topo.ases[i] }

// ASNIndex resolves an ASN to its dense index, or -1.
func (s *Scenario) ASNIndex(asn bgp.ASN) int { return s.topo.Index(asn) }

// Orgs returns the AS-to-organization dataset.
func (s *Scenario) Orgs() *org.Dataset { return s.topo.orgs }

// RoutableSpace returns all allocated space (announced + held).
func (s *Scenario) RoutableSpace() netx.IntervalSet { return s.topo.routable }

// MemberByPort resolves an IXP port to a member, or nil.
func (s *Scenario) MemberByPort(port uint32) *Member {
	if i, ok := s.byPort[port]; ok {
		return &s.Members[i]
	}
	return nil
}

func (s *Scenario) memberIndices() []int {
	out := make([]int, len(s.Members))
	for i, m := range s.Members {
		out[i] = m.ASIndex
	}
	return out
}

// --- synthesis steps ---

// pickCollectors chooses route-collector peer ASes: all tier-1s, then
// transits, plus one stub (real collector peer sets skew large).
func (s *Scenario) pickCollectors(rng *rand.Rand) {
	var t1s, transits, stubs []int
	for i, a := range s.topo.ases {
		switch a.Tier {
		case Tier1:
			t1s = append(t1s, i)
		case Transit:
			transits = append(transits, i)
		default:
			stubs = append(stubs, i)
		}
	}
	s.Collectors = append(s.Collectors, t1s...)
	rng.Shuffle(len(transits), func(i, j int) { transits[i], transits[j] = transits[j], transits[i] })
	for i := 0; len(s.Collectors) < s.Cfg.NumCollectorPeers-1 && i < len(transits); i++ {
		s.Collectors = append(s.Collectors, transits[i])
	}
	if len(stubs) > 0 {
		s.Collectors = append(s.Collectors, stubs[rng.Intn(len(stubs))])
	}
	sort.Ints(s.Collectors)
}

// policyClass is one cell of the Figure 5 Venn distribution.
type policyClass struct {
	b, u, i bool
	p       float64
}

// figure5Distribution reproduces the member-participation Venn of Figure 5.
var figure5Distribution = []policyClass{
	{false, false, false, 0.1802}, // clean
	{true, false, false, 0.0963},  // bogon only
	{false, true, false, 0.0220},  // unrouted only
	{false, false, true, 0.0757},  // invalid only
	{true, true, false, 0.1882},
	{true, false, true, 0.1548},
	{false, true, true, 0.0292},
	{true, true, true, 0.2806},
}

// pickMembers selects IXP members and assigns business types, traffic
// scales, and filtering-gap ground truth.
func (s *Scenario) pickMembers(rng *rand.Rand) {
	var transits, stubs []int
	for i, a := range s.topo.ases {
		switch a.Tier {
		case Transit:
			transits = append(transits, i)
		case Stub:
			stubs = append(stubs, i)
		}
	}
	rng.Shuffle(len(transits), func(i, j int) { transits[i], transits[j] = transits[j], transits[i] })
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })

	n := s.Cfg.NumMembers
	nNSP := n * 30 / 100
	if nNSP > len(transits) {
		nNSP = len(transits)
	}
	chosen := append([]int(nil), transits[:nNSP]...)
	for i := 0; len(chosen) < n && i < len(stubs); i++ {
		chosen = append(chosen, stubs[i])
	}
	sort.Ints(chosen)

	total := 0.0
	for _, pc := range figure5Distribution {
		total += pc.p
	}

	for i, asIdx := range chosen {
		m := Member{
			ASIndex: asIdx,
			ASN:     s.topo.ases[asIdx].ASN,
			Port:    uint32(i + 1),
		}
		if s.topo.ases[asIdx].Tier == Transit {
			m.Type = NSP
		} else {
			switch r := rng.Float64(); {
			case r < 0.41:
				m.Type = ISP
			case r < 0.70:
				m.Type = Hosting
			case r < 0.82:
				m.Type = Content
			default:
				m.Type = OtherType
			}
		}
		// Heavy-tailed traffic scale (Pareto-ish); content and NSPs big.
		m.TrafficScale = 1.0 / (0.05 + rng.Float64()*rng.Float64())
		if m.Type == Content || m.Type == NSP {
			m.TrafficScale *= 8
		}

		// Filtering-gap ground truth from the Figure 5 distribution;
		// content providers skew clean (they control their hosts).
		r := rng.Float64() * total
		var pc policyClass
		for _, c := range figure5Distribution {
			if r < c.p {
				pc = c
				break
			}
			r -= c.p
		}
		if m.Type == Content && rng.Float64() < 0.7 {
			pc = policyClass{} // clean
		}
		m.EmitsBogon, m.EmitsUnrouted, m.EmitsInvalid = pc.b, pc.u, pc.i

		// Stray-router leakers: a visible minority of members whose
		// Invalid traffic is dominated by router interface addresses.
		if m.EmitsInvalid && rng.Float64() < 0.32 {
			m.StrayRouter = true
		}
		s.Members = append(s.Members, m)
	}
	for i := range s.Members {
		s.byPort[s.Members[i].Port] = i
	}

	// Hidden peerings: ~2% of members (at least two) legitimately source
	// a partner AS's space over a BGP-invisible link; force them to emit
	// Invalid so the false positive actually shows up.
	hidden := 0
	want := len(s.Members) / 50
	if want < 2 {
		want = 2
	}
	for i := range s.Members {
		s.Members[i].HiddenPeerAS = -1
	}
	// Prefer small members: these show up as the near-100%-Invalid
	// members of Figure 4 without dominating the Invalid class's volume.
	var median float64
	{
		scales := make([]float64, len(s.Members))
		for i := range s.Members {
			scales[i] = s.Members[i].TrafficScale
		}
		sort.Float64s(scales)
		median = scales[len(scales)/2]
	}
	for _, i := range rng.Perm(len(s.Members)) {
		if hidden >= want {
			break
		}
		if s.Members[i].TrafficScale > median {
			continue
		}
		partner := stubs[rng.Intn(len(stubs))]
		if partner == s.Members[i].ASIndex {
			continue
		}
		s.Members[i].HiddenPeerAS = partner
		s.Members[i].EmitsInvalid = true
		hidden++
	}
}

// planAttacks fixes victims and amplifiers and assigns attacker weights.
func (s *Scenario) planAttacks(rng *rand.Rand) {
	// Helper: a random host address inside some announced prefix.
	randHost := func() netx.Addr {
		for tries := 0; tries < 100; tries++ {
			a := &s.topo.ases[rng.Intn(len(s.topo.ases))]
			if len(a.Announced) == 0 {
				continue
			}
			p := a.Announced[rng.Intn(len(a.Announced))]
			return p.First() + netx.Addr(rng.Uint64()%p.NumAddrs())
		}
		return netx.AddrFrom4(8, 8, 8, 8)
	}

	// NTP victims: top-10 heavy hitters (Figure 11b).
	for i := 0; i < 10; i++ {
		s.Attack.NTPVictims = append(s.Attack.NTPVictims, randHost())
	}
	// Amplifiers: scale with scenario size.
	nAmp := 200 + s.Cfg.NumStub/4
	seen := make(map[netx.Addr]bool)
	for len(s.Attack.NTPAmplifiers) < nAmp {
		a := randHost()
		if !seen[a] {
			seen[a] = true
			s.Attack.NTPAmplifiers = append(s.Attack.NTPAmplifiers, a)
		}
	}
	// Scan list: ~16% of amplifiers plus unrelated NTP servers
	// (the paper found 3,865 of 24,328 contacted amplifiers in ZMap data).
	for _, a := range s.Attack.NTPAmplifiers {
		if rng.Float64() < 0.16 {
			s.Attack.ScanList = append(s.Attack.ScanList, a)
		}
	}
	for i := 0; i < nAmp*3; i++ {
		s.Attack.ScanList = append(s.Attack.ScanList, randHost())
	}
	// Flood and Steam victims.
	for i := 0; i < 12; i++ {
		s.Attack.FloodVictims = append(s.Attack.FloodVictims, randHost())
	}
	for i := 0; i < 3; i++ {
		s.Attack.SteamVictims = append(s.Attack.SteamVictims, randHost())
	}

	// NTP attacker weights: one member dominates (91.94% in the paper),
	// the top 5 together emit ~97.86%.
	// Attackers sit in small edge/hosting members: a transit-scale member
	// would be a valid source for most of the routed space under the Full
	// Cone, and its triggers would go undetected (the paper's dominant
	// trigger member was clearly visible as Invalid).
	var invalidMembers []int
	for i, m := range s.Members {
		if m.EmitsInvalid {
			invalidMembers = append(invalidMembers, i)
		}
	}
	sort.Slice(invalidMembers, func(a, b int) bool {
		sa := s.Members[invalidMembers[a]].TrafficScale
		sb := s.Members[invalidMembers[b]].TrafficScale
		if sa != sb {
			return sa < sb
		}
		return invalidMembers[a] < invalidMembers[b]
	})
	weights := []float64{0.9194, 0.025, 0.015, 0.012, 0.007}
	for i, w := range weights {
		if i < len(invalidMembers) {
			s.Members[invalidMembers[i]].NTPAttackWeight = w
		}
	}
	// A long tail of tiny trigger sources (the paper saw 44 members).
	for i := len(weights); i < len(invalidMembers) && i < 44; i++ {
		s.Members[invalidMembers[i]].NTPAttackWeight = 0.0214 / 39
	}

	// Random-spoof flooders among unrouted-emitting members; attack hosts
	// concentrate in the larger (hosting-heavy) networks, which also keeps
	// per-member unrouted shares within the Figure 4 envelope.
	var unroutedMembers []int
	for i, m := range s.Members {
		if m.EmitsUnrouted {
			unroutedMembers = append(unroutedMembers, i)
		}
	}
	sort.Slice(unroutedMembers, func(a, b int) bool {
		sa := s.Members[unroutedMembers[a]].TrafficScale
		sb := s.Members[unroutedMembers[b]].TrafficScale
		if sa != sb {
			return sa > sb
		}
		return unroutedMembers[a] < unroutedMembers[b]
	})
	// Only a handful of members actually host flooders ("while fewer
	// networks emit such traffic, they typically emit larger quantities");
	// the rest of the unrouted-emitting members just leak.
	floodW := []float64{0.45, 0.2, 0.12, 0.08, 0.05, 0.01, 0.01, 0.01}
	for i, w := range floodW {
		if i < len(unroutedMembers) {
			s.Members[unroutedMembers[i]].RandomFloodWeight = w
		}
	}
}

// planSpoofer picks the measurement server and transit filtering ground
// truth used by the active-measurement simulation of §4.5.
func (s *Scenario) planSpoofer(rng *rand.Rand) {
	// Server in a stub that is not a member.
	memberSet := make(map[int]bool)
	for _, m := range s.Members {
		memberSet[m.ASIndex] = true
	}
	for i, a := range s.topo.ases {
		if a.Tier == Stub && !memberSet[i] && len(a.Announced) > 0 {
			s.MeasurementServer = i
			break
		}
	}
	// ~25% of mid-tier transits filter spoofed traffic from their
	// customers. Tier-1s do not deploy strict uRPF (asymmetric routing at
	// that scale makes it impossible, as the operator survey of §2.2
	// notes), and the measurement server's own upstream chain never
	// filters — the Spoofer project hosts its sink where probes can
	// actually arrive.
	ancestors := make(map[int]bool)
	queue := []int{s.MeasurementServer}
	for head := 0; head < len(queue); head++ {
		for _, p := range s.topo.ases[queue[head]].Providers {
			if !ancestors[p] {
				ancestors[p] = true
				queue = append(queue, p)
			}
		}
	}
	for i, a := range s.topo.ases {
		if a.Tier == Transit && !ancestors[i] && rng.Float64() < 0.25 {
			s.TransitFilters[i] = true
		}
	}
}

// --- ground-truth helpers used by the traffic generator ---

// CustomerConeIndices returns the ground-truth customer cone of an AS
// (itself included), via BFS over customer links.
func (s *Scenario) CustomerConeIndices(asIdx int) []int {
	seen := map[int]bool{asIdx: true}
	queue := []int{asIdx}
	for head := 0; head < len(queue); head++ {
		for _, c := range s.topo.ases[queue[head]].Customers {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	sort.Ints(queue)
	return queue
}

// SourcePool returns prefixes a member legitimately sources: its own
// announced space, its ground-truth customer cone's space, its hidden
// peer's space, and its org siblings' space. Capped at maxPrefixes.
func (s *Scenario) SourcePool(m *Member, maxPrefixes int) []netx.Prefix {
	var out []netx.Prefix
	add := func(idx int) {
		out = append(out, s.topo.ases[idx].Announced...)
	}
	for _, idx := range s.CustomerConeIndices(m.ASIndex) {
		add(idx)
		if len(out) >= maxPrefixes {
			return out[:maxPrefixes]
		}
	}
	for _, sib := range s.topo.ases[m.ASIndex].Siblings {
		add(sib)
	}
	if m.HiddenPeerAS >= 0 {
		add(m.HiddenPeerAS)
	}
	if len(out) > maxPrefixes {
		out = out[:maxPrefixes]
	}
	return out
}

// HeldPool returns the member's allocated-but-unannounced prefixes (their
// own genuinely unrouted space; misconfigured hosts may source from it).
func (s *Scenario) HeldPool(m *Member) []netx.Prefix {
	return s.topo.ases[m.ASIndex].Held
}

// AllHeldPrefixes returns every held prefix in the scenario (the global
// unrouted-but-allocated pool attackers draw from).
func (s *Scenario) AllHeldPrefixes() []netx.Prefix {
	var out []netx.Prefix
	for i := range s.topo.ases {
		out = append(out, s.topo.ases[i].Held...)
	}
	return out
}

// String summarizes the scenario.
func (s *Scenario) String() string {
	return fmt.Sprintf("scenario{ases=%d members=%d collectors=%d anns=%d window=%s}",
		s.NumASes(), len(s.Members), len(s.Collectors), len(s.Anns),
		s.Cfg.Duration)
}

// Window returns the traffic window.
func (s *Scenario) Window() (time.Time, time.Time) {
	return s.Cfg.Start, s.Cfg.Start.Add(s.Cfg.Duration)
}

// WriteMRT serializes the announcement set as an MRT stream: a peer index
// table, RIB records for announcements observed at collectors, and a tail
// of BGP4MP update messages (a random-looking 10% slice re-encoded as
// updates so both MRT ingestion paths are exercised).
func (s *Scenario) WriteMRT(w io.Writer) error {
	mw := bgp.NewWriter(w)
	ts := s.Cfg.Start

	table := &bgp.PeerIndexTable{
		CollectorID: netx.AddrFrom4(198, 51, 100, 1),
		ViewName:    "spoofscope",
	}
	peerIdx := make(map[bgp.ASN]uint16)
	for i, c := range s.Collectors {
		asn := s.topo.ases[c].ASN
		peerIdx[asn] = uint16(i)
		table.Peers = append(table.Peers, bgp.Peer{
			BGPID: netx.Addr(0x0a000000 + uint32(i)),
			Addr:  netx.Addr(0xc6336401 + uint32(i)),
			AS:    asn,
		})
	}
	if err := mw.WritePeerIndexTable(ts, table); err != nil {
		return err
	}

	// Group announcements by prefix for RIB records.
	byPrefix := make(map[netx.Prefix][]bgp.Announcement)
	var order []netx.Prefix
	for _, a := range s.Anns {
		if _, ok := byPrefix[a.Prefix]; !ok {
			order = append(order, a.Prefix)
		}
		byPrefix[a.Prefix] = append(byPrefix[a.Prefix], a)
	}
	seq := uint32(0)
	for _, p := range order {
		rec := &bgp.RIBRecord{Sequence: seq, Prefix: p}
		seq++
		for _, a := range byPrefix[p] {
			pi, isCollector := peerIdx[a.Path[0]]
			if !isCollector {
				// Route-server observation: encoded as an update below.
				continue
			}
			rec.Entries = append(rec.Entries, bgp.RIBEntry{
				PeerIndex:      pi,
				OriginatedTime: ts,
				Attrs: bgp.Attributes{
					Origin:  bgp.OriginIGP,
					ASPath:  []bgp.PathSegment{{Type: bgp.SegmentSequence, ASNs: a.Path}},
					NextHop: table.Peers[pi].Addr,
				},
			})
		}
		if len(rec.Entries) > 0 {
			if err := mw.WriteRIB(ts, rec); err != nil {
				return err
			}
		}
	}
	// Route-server (and a slice of collector) observations as updates.
	for i, a := range s.Anns {
		if _, isCollector := peerIdx[a.Path[0]]; isCollector && i%10 != 0 {
			continue
		}
		u := &bgp.Update{
			Attrs: bgp.Attributes{
				Origin:  bgp.OriginIGP,
				ASPath:  []bgp.PathSegment{{Type: bgp.SegmentSequence, ASNs: a.Path}},
				NextHop: netx.AddrFrom4(198, 51, 100, 254),
			},
			NLRI: []netx.Prefix{a.Prefix},
		}
		if err := mw.WriteUpdate(ts.Add(time.Duration(i)*time.Millisecond),
			a.Path[0], 65000, netx.AddrFrom4(198, 51, 100, 253),
			netx.AddrFrom4(198, 51, 100, 254), u); err != nil {
			return err
		}
	}
	return mw.Flush()
}
