// Package flowgen synthesizes the sampled IPFIX traffic of the paper's
// vantage point from a scenario's ground truth: regular member-to-member
// traffic with diurnal load and bimodal packet sizes, bogon leakage from
// misconfigured NATs, randomly-spoofed flood attacks with unrouted sources,
// NTP amplification triggers (selectively spoofed victims) together with
// the amplified responses, stray router-interface ICMP, and
// legitimate-but-invisible hidden-peer traffic.
//
// Every flow carries a ground-truth Label for evaluation; the classifier
// never sees labels. Generation is deterministic given the seed.
package flowgen

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"spoofscope/internal/netx"
	"spoofscope/internal/scenario"
)

// Label is the ground-truth class of a generated flow.
type Label int

// Ground-truth labels.
const (
	LabelRegular      Label = iota
	LabelBogonLeak          // NAT misconfiguration (RFC1918 etc.)
	LabelBogonAttack        // random multicast / class-E source flood
	LabelUnroutedLeak       // misconfigured host in held space
	LabelRandomFlood        // randomly spoofed flood (unrouted sources)
	LabelNTPTrigger         // amplification trigger (spoofed victim source)
	LabelNTPResponse        // amplifier's (legitimate) response
	LabelInvalidSpoof       // spoofed routed source outside the cone
	LabelStrayRouter        // router interface source (stray, not malicious)
	LabelHiddenPeer         // legitimate traffic over a BGP-invisible link
	LabelSteamFlood         // UDP flood on port 27015
	LabelOrgInternal        // legitimate multi-AS organisation internal traffic
	LabelRouteLeak          // partial transit for a peer's customers
)

func (l Label) String() string {
	switch l {
	case LabelRegular:
		return "regular"
	case LabelBogonLeak:
		return "bogon-leak"
	case LabelBogonAttack:
		return "bogon-attack"
	case LabelUnroutedLeak:
		return "unrouted-leak"
	case LabelRandomFlood:
		return "random-flood"
	case LabelNTPTrigger:
		return "ntp-trigger"
	case LabelNTPResponse:
		return "ntp-response"
	case LabelInvalidSpoof:
		return "invalid-spoof"
	case LabelStrayRouter:
		return "stray-router"
	case LabelHiddenPeer:
		return "hidden-peer"
	case LabelSteamFlood:
		return "steam-flood"
	case LabelOrgInternal:
		return "org-internal"
	case LabelRouteLeak:
		return "route-leak"
	default:
		return "unknown"
	}
}

// Spoofed reports whether the label denotes intentionally spoofed traffic
// (as opposed to regular, stray, or misconfigured-but-genuine sources).
func (l Label) Spoofed() bool {
	switch l {
	case LabelRandomFlood, LabelNTPTrigger, LabelInvalidSpoof, LabelBogonAttack, LabelSteamFlood:
		return true
	}
	return false
}

// Config tunes traffic volume. Rates are sampled flows per 10-minute
// bucket across the whole IXP (before per-member weighting).
type Config struct {
	Seed int64
	// RegularPerBucket is the total regular sampled-flow budget per bucket.
	RegularPerBucket int
	// BucketLength is the generation granularity.
	BucketLength time.Duration
}

// DefaultConfig returns moderate volumes (a one-week default scenario
// yields roughly half a million sampled flows).
func DefaultConfig() Config {
	return Config{Seed: 7, RegularPerBucket: 420, BucketLength: 10 * time.Minute}
}

// Generator produces the flow stream for one scenario.
type Generator struct {
	s   *scenario.Scenario
	cfg Config
	rng *rand.Rand

	pools      [][]netx.Prefix // legit source prefixes per member index
	hiddenPool [][]netx.Prefix // hidden-peer partner prefixes per member
	tePool     [][]netx.Prefix // traffic-engineered (selectively announced) cone prefixes
	sibPool    [][]netx.Prefix // org-sibling prefixes per member (internal traffic)
	peerPool   [][]netx.Prefix // peers'-cone prefixes per member (partial transit)
	heldAll    []netx.Prefix
	routed     []netx.Prefix // all announced prefixes
	originLPM  *netx.FlatLPM // announced prefix -> AS index
	carrier    []int         // AS index -> member index carrying it (-1)
	bigMembers []int         // fallback egress member indices
	routerIPs  [][]netx.Addr // per member: its stray router addresses

	floodWindows [][2]int     // bucket ranges of flood attacks, per flooder
	bogonAttacks map[int]bool // buckets with a bogon-source attack burst
}

// New builds a generator. It precomputes the member source pools and
// attack schedule.
func New(s *scenario.Scenario, cfg Config) *Generator {
	if cfg.BucketLength <= 0 {
		cfg.BucketLength = 10 * time.Minute
	}
	if cfg.RegularPerBucket <= 0 {
		cfg.RegularPerBucket = 420
	}
	g := &Generator{
		s:   s,
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	g.pools = make([][]netx.Prefix, len(s.Members))
	g.hiddenPool = make([][]netx.Prefix, len(s.Members))
	g.sibPool = make([][]netx.Prefix, len(s.Members))
	g.routerIPs = make([][]netx.Addr, len(s.Members))
	for i := range s.Members {
		m := &s.Members[i]
		g.pools[i] = s.SourcePool(m, 200)
		if m.HiddenPeerAS >= 0 {
			g.hiddenPool[i] = s.ASInfo(m.HiddenPeerAS).Announced
		}
		for _, sib := range s.ASInfo(m.ASIndex).Siblings {
			g.sibPool[i] = append(g.sibPool[i], s.ASInfo(sib).Announced...)
		}
		g.routerIPs[i] = s.LinkRouterAddrs(m.ASIndex)
	}
	g.heldAll = s.AllHeldPrefixes()
	var originAS []uint32
	for i := 0; i < s.NumASes(); i++ {
		for _, p := range s.ASInfo(i).Announced {
			g.routed = append(g.routed, p)
			originAS = append(originAS, uint32(i))
		}
	}
	g.originLPM = netx.BuildFlatLPM(g.routed, originAS)

	// Per-prefix path membership (which ASes appear on the observed
	// announcement paths of each prefix): drives the exact construction of
	// the TE pools below.
	onPath := make(map[netx.Prefix]map[int]bool)
	for _, a := range s.Anns {
		set := onPath[a.Prefix]
		if set == nil {
			set = make(map[int]bool)
			onPath[a.Prefix] = set
		}
		for _, asn := range a.Path {
			if idx := s.ASNIndex(asn); idx >= 0 {
				set[idx] = true
			}
		}
	}

	// Traffic-engineered prefixes: cone customers announce them to a
	// provider subset but load-balance return traffic across all exits,
	// so members off the announced branch legitimately source them. This
	// is the asymmetry that makes the Naive approach over-report (§3.2).
	// Only prefixes whose observed paths genuinely avoid the member count:
	// a prefix routed through the member is naive-valid anyway.
	g.tePool = make([][]netx.Prefix, len(s.Members))
	for i := range s.Members {
		m := &s.Members[i]
		for _, ci := range s.CustomerConeIndices(m.ASIndex) {
			c := s.ASInfo(ci)
			for p := range c.SelectiveExport {
				if ci != m.ASIndex && !onPath[p][m.ASIndex] {
					g.tePool[i] = append(g.tePool[i], p)
				}
			}
		}
		sortPrefixes(g.tePool[i])
	}

	// Peer-cone prefixes: transit members occasionally source their
	// settlement-free peers' customer space (partial transit, route
	// leaks — §4.4's "uncommon setups"). Such traffic is valid under the
	// Full Cone (the peering edge is on observed paths) but Invalid under
	// Naive and Customer Cone, producing the paper's large NAIVE/CC
	// overcounts relative to FULL.
	g.peerPool = make([][]netx.Prefix, len(s.Members))
	for i := range s.Members {
		m := &s.Members[i]
		for _, peer := range s.ASInfo(m.ASIndex).Peers {
			for _, ci := range s.CustomerConeIndices(peer) {
				if !onPath[firstPrefix(s, ci)][m.ASIndex] {
					g.peerPool[i] = append(g.peerPool[i], s.ASInfo(ci).Announced...)
				}
				if len(g.peerPool[i]) > 120 {
					break
				}
			}
		}
		sortPrefixes(g.peerPool[i])
	}

	// carrier: member with the smallest ground-truth cone covering an AS.
	g.carrier = make([]int, s.NumASes())
	for i := range g.carrier {
		g.carrier[i] = -1
	}
	type mc struct {
		member int
		cone   []int
	}
	var mcs []mc
	for i := range s.Members {
		mcs = append(mcs, mc{i, s.CustomerConeIndices(s.Members[i].ASIndex)})
	}
	sort.Slice(mcs, func(a, b int) bool {
		if len(mcs[a].cone) != len(mcs[b].cone) {
			return len(mcs[a].cone) < len(mcs[b].cone)
		}
		return mcs[a].member < mcs[b].member
	})
	for _, c := range mcs {
		for _, as := range c.cone {
			if g.carrier[as] == -1 {
				g.carrier[as] = c.member
			}
		}
	}
	for _, c := range mcs {
		if len(c.cone) > 3 {
			g.bigMembers = append(g.bigMembers, c.member)
		}
	}
	if len(g.bigMembers) == 0 {
		g.bigMembers = []int{0}
	}

	g.scheduleFloods()
	return g
}

// sortPrefixes orders a pool deterministically (map iteration above).
func sortPrefixes(ps []netx.Prefix) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) < 0 })
}

// firstPrefix returns an AS's first announced prefix (zero value if none).
func firstPrefix(s *scenario.Scenario, idx int) netx.Prefix {
	if a := s.ASInfo(idx).Announced; len(a) > 0 {
		return a[0]
	}
	return netx.Prefix{}
}

// numBuckets returns the bucket count of the window.
func (g *Generator) numBuckets() int {
	return int(g.s.Cfg.Duration / g.cfg.BucketLength)
}

// scheduleFloods fixes random-spoof attack windows for each flooder and
// the bogon-source attack bursts.
func (g *Generator) scheduleFloods() {
	n := g.numBuckets()
	g.bogonAttacks = make(map[int]bool)
	nBogon := n / 50
	if nBogon < 2 {
		nBogon = 2
	}
	for i := 0; i < nBogon; i++ {
		g.bogonAttacks[g.rng.Intn(n)] = true
	}
	for i := range g.s.Members {
		m := &g.s.Members[i]
		if m.RandomFloodWeight <= 0 {
			continue
		}
		// Attack count grows with weight; each lasts 1-6 buckets.
		attacks := 1 + int(m.RandomFloodWeight*8) + g.rng.Intn(2)
		for a := 0; a < attacks; a++ {
			start := g.rng.Intn(n)
			dur := 1 + g.rng.Intn(6)
			g.floodWindows = append(g.floodWindows, [2]int{i, start})
			// Encode duration by appending windows per bucket.
			for d := 1; d < dur; d++ {
				if start+d < n {
					g.floodWindows = append(g.floodWindows, [2]int{i, start + d})
				}
			}
		}
	}
}

// diurnal returns the time-of-day load factor in [0.45, 1.0], peaking in
// the evening (the classic eyeball curve).
func diurnal(t time.Time) float64 {
	h := float64(t.Hour()) + float64(t.Minute())/60
	return 0.725 + 0.275*math.Sin((h-13)/24*2*math.Pi)
}

// poisson draws a Poisson variate (Knuth's method; fine for small λ).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation for large λ.
		v := int(lambda + math.Sqrt(lambda)*rng.NormFloat64() + 0.5)
		if v < 0 {
			return 0
		}
		return v
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// hostIn picks a host address inside a prefix.
func (g *Generator) hostIn(p netx.Prefix) netx.Addr {
	return p.First() + netx.Addr(g.rng.Uint64()%p.NumAddrs())
}

// randomRoutedHost picks a host in announced space.
func (g *Generator) randomRoutedHost() netx.Addr {
	return g.hostIn(g.routed[g.rng.Intn(len(g.routed))])
}

// egressFor returns the egress port for a destination address: the member
// carrying the destination's origin if resolvable, else a big member.
func (g *Generator) egressFor(dst netx.Addr, ingress uint32) uint32 {
	// Cheap resolution: find the AS whose announced prefix covers dst by
	// scanning the carrier of a random big member is wrong; instead use
	// the scenario routable check plus a probabilistic fallback. Precision
	// here is cosmetic (egress is not used by the classifier), so route
	// via a big member deterministically derived from dst.
	m := g.bigMembers[int(uint32(dst))%len(g.bigMembers)]
	port := g.s.Members[m].Port
	if port == ingress && len(g.bigMembers) > 1 {
		port = g.s.Members[g.bigMembers[(int(uint32(dst))+1)%len(g.bigMembers)]].Port
	}
	return port
}
