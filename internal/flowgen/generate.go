package flowgen

import (
	"math"
	"sort"
	"time"

	"spoofscope/internal/bogon"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
)

// EmitFunc receives each generated flow with its ground-truth label.
type EmitFunc func(f ipfix.Flow, label Label)

// Generate streams the whole window's sampled flows in bucket order.
func (g *Generator) Generate(emit EmitFunc) {
	n := g.numBuckets()
	// Index flood windows by bucket.
	floodsAt := make(map[int][]int)
	for _, w := range g.floodWindows {
		floodsAt[w[1]] = append(floodsAt[w[1]], w[0])
	}
	// Total regular weight.
	var totalScale float64
	for _, m := range g.s.Members {
		totalScale += m.TrafficScale
	}

	// Illegitimate-traffic rates scale with the regular budget so that the
	// class mix stays stable across volume settings AND across member
	// counts: each class gets a fixed IXP-wide budget (a fraction of the
	// regular rate) distributed over its emitting members proportionally
	// to sqrt(member share). The absolute spoofed share (~10%% of sampled
	// flows) deliberately oversamples the paper's ~0.1%% so that per-class
	// statistics stay dense at test-sized windows; relative shapes between
	// classes are preserved.
	r := float64(g.cfg.RegularPerBucket)
	weight := make([]float64, len(g.s.Members))
	var sumBogonW, sumUnroutedW, sumInvalidW, sumStrayW float64
	for mi := range g.s.Members {
		m := &g.s.Members[mi]
		weight[mi] = math.Sqrt(m.TrafficScale / totalScale)
		if m.EmitsBogon {
			sumBogonW += weight[mi]
		}
		if m.EmitsUnrouted {
			sumUnroutedW += weight[mi]
		}
		if m.EmitsInvalid {
			sumInvalidW += weight[mi]
			if m.StrayRouter {
				sumStrayW += weight[mi]
			}
		}
	}
	norm := func(w, sum float64) float64 {
		if sum == 0 {
			return 0
		}
		return w / sum
	}
	// capped bounds a member's leak rate to a fraction of its own regular
	// rate, keeping per-member illegitimate shares inside the Figure 4
	// envelope (~10%, not ~100%) even for the smallest members.
	capped := func(lambda, share, frac float64) float64 {
		if limit := frac * share * r; lambda > limit {
			return limit
		}
		return lambda
	}

	// The rates that do not follow the diurnal curve are fixed per member.
	type memberRates struct{ unrouted, invalid, stray, ntp rate }
	fixed := make([]memberRates, len(g.s.Members))
	for mi := range g.s.Members {
		m := &g.s.Members[mi]
		share, w := m.TrafficScale/totalScale, weight[mi]
		fixed[mi] = memberRates{
			unrouted: fixedRate(capped(0.005*r*norm(w, sumUnroutedW), share, 0.08)),
			invalid:  fixedRate(capped(0.005*r*norm(w, sumInvalidW), share, 0.08)),
			stray:    fixedRate(capped(0.012*r*norm(w, sumStrayW), share, 0.30)),
			ntp:      fixedRate(0.025 * r * m.NTPAttackWeight),
		}
	}

	for b := 0; b < n; b++ {
		t := g.s.Cfg.Start.Add(time.Duration(b) * bucketLength)
		day := diurnal(t)

		for mi := range g.s.Members {
			m := &g.s.Members[mi]
			share := m.TrafficScale / totalScale
			// Misconfiguration and spoof leakage grow with network size,
			// but sub-linearly (sqrt of share), so small members' leakage
			// stays a visible-but-bounded share of their own traffic
			// (Figure 4's per-member shares top out around 10%, not 100%).
			w := weight[mi]
			g.emitRegular(emit, t, mi, poisson(g.rng, r*share*day))
			if m.EmitsBogon {
				// NAT leakage follows user activity (slight diurnal).
				g.emitBogonLeak(emit, t, mi, poisson(g.rng, capped(0.012*r*norm(w, sumBogonW), share, 0.10)*day))
			}
			if m.EmitsUnrouted {
				g.emitUnroutedLeak(emit, t, mi, fixed[mi].unrouted.draw(g.rng))
			}
			if m.EmitsInvalid {
				g.emitInvalidSpoof(emit, t, mi, fixed[mi].invalid.draw(g.rng))
				if m.StrayRouter {
					g.emitStrayRouter(emit, t, mi, fixed[mi].stray.draw(g.rng))
				}
			}
			if m.NTPAttackWeight > 0 {
				g.emitNTP(emit, t, mi, fixed[mi].ntp.draw(g.rng))
			}
		}
		// Flood attacks active this bucket, scaled to the hosting network.
		for _, mi := range floodsAt[b] {
			burst := int((0.06*r + g.rng.Float64()*0.2*r) * 8 * weight[mi])
			if burst < 1 {
				burst = 1
			}
			g.emitRandomFlood(emit, t, mi, burst)
		}
		// Scheduled bogon-source attack bursts (multicast / class E).
		if g.bogonAttacks[b] {
			g.emitBogonAttack(emit, t, int(0.05*r)+g.rng.Intn(maxI(1, int(0.1*r))))
		}
	}
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// stamp spreads flows across the bucket.
func (g *Generator) stamp(t time.Time) time.Time {
	return t.Add(time.Duration(g.rng.Int63n(int64(bucketLength))))
}

func (g *Generator) emitRegular(emit EmitFunc, t time.Time, mi, count int) {
	m := &g.s.Members[mi]
	pool := g.pools[mi]
	hidden := g.hiddenPool[mi]
	te := g.tePool[mi]
	sib := g.sibPool[mi]
	peerP := g.peerPool[mi]
	for i := 0; i < count; i++ {
		var src netx.Addr
		label := LabelRegular
		switch {
		// Hidden-peer members route most of their traffic from the
		// partner's space (tunnel endpoints), the §4.4 false positive.
		case len(hidden) > 0 && g.rng.Float64() < 0.6:
			src = g.hostIn(hidden[g.rng.Intn(len(hidden))])
			label = LabelHiddenPeer
		// Multi-AS organisations shuffle heavy internal traffic between
		// their ASes across the IXP ("few heavy traffic-carrying
		// members", §4.3): legitimate, but Invalid to any approach that
		// ignores the organisation.
		case len(sib) > 0 && g.rng.Float64() < 0.35:
			src = g.hostIn(sib[g.rng.Intn(len(sib))])
			label = LabelOrgInternal
		// Traffic-engineered cone prefixes ride the non-announced exit
		// disproportionately often (that is the point of the TE).
		case len(te) > 0 && g.rng.Float64() < 0.18:
			src = g.hostIn(te[g.rng.Intn(len(te))])
		// Partial transit for peers' customers (route leaks).
		case len(peerP) > 0 && g.rng.Float64() < 0.08:
			src = g.hostIn(peerP[g.rng.Intn(len(peerP))])
			label = LabelRouteLeak
		default:
			src = g.hostIn(pool[g.rng.Intn(len(pool))])
		}
		dst := g.randomRoutedHost()
		f := ipfix.Flow{
			Start:   g.stamp(t),
			SrcAddr: src,
			DstAddr: dst,
			Ingress: m.Port,
			Egress:  g.egressFor(dst, m.Port),
			Packets: 1,
		}
		switch r := g.rng.Float64(); {
		case r < 0.58: // web down/up
			f.Protocol = ipfix.ProtoTCP
			if g.rng.Float64() < 0.5 {
				f.SrcPort = g.webPort()
				f.DstPort = g.ephemeral()
				f.Bytes = g.dataSize() // server->client data packets
				f.TCPFlags = 0x18      // PSH|ACK
			} else {
				f.SrcPort = g.ephemeral()
				f.DstPort = g.webPort()
				f.Bytes = g.ackSize() // client->server ACKs
				f.TCPFlags = 0x10
			}
		case r < 0.80: // other TCP
			f.Protocol = ipfix.ProtoTCP
			f.SrcPort, f.DstPort = g.ephemeral(), g.ephemeral()
			if g.rng.Float64() < 0.5 {
				f.Bytes = g.dataSize()
			} else {
				f.Bytes = g.ackSize()
			}
			f.TCPFlags = 0x10
		default: // UDP (BitTorrent-style random ports)
			f.Protocol = ipfix.ProtoUDP
			f.SrcPort, f.DstPort = g.ephemeral(), g.ephemeral()
			f.Bytes = g.dataSize()
		}
		emit(f, label)
	}
}

func (g *Generator) webPort() uint16 {
	if g.rng.Float64() < 0.55 {
		return 443
	}
	return 80
}

func (g *Generator) ephemeral() uint16 {
	return uint16(1024 + g.rng.Intn(64512))
}

// dataSize draws a data-bearing packet size (upper mode of the bimodal
// distribution).
func (g *Generator) dataSize() uint64 {
	return uint64(1350 + g.rng.Intn(151))
}

// ackSize draws a small-packet size (lower mode).
func (g *Generator) ackSize() uint64 {
	return uint64(40 + g.rng.Intn(21))
}

// bogonLeakSources weights RFC1918 heavily, mirroring Figure 10.
var bogonLeakSources = []netx.Prefix{
	netx.MustParsePrefix("10.0.0.0/8"),
	netx.MustParsePrefix("10.0.0.0/8"),
	netx.MustParsePrefix("192.168.0.0/16"),
	netx.MustParsePrefix("192.168.0.0/16"),
	netx.MustParsePrefix("172.16.0.0/12"),
	netx.MustParsePrefix("100.64.0.0/10"),
	netx.MustParsePrefix("169.254.0.0/16"),
}

func (g *Generator) emitBogonLeak(emit EmitFunc, t time.Time, mi, count int) {
	m := &g.s.Members[mi]
	for i := 0; i < count; i++ {
		dst := g.randomRoutedHost()
		f := ipfix.Flow{
			Start:    g.stamp(t),
			SrcAddr:  g.hostIn(bogonLeakSources[g.rng.Intn(len(bogonLeakSources))]),
			DstAddr:  dst,
			SrcPort:  g.ephemeral(),
			DstPort:  g.webPort(),
			Protocol: ipfix.ProtoTCP,
			TCPFlags: 0x02, // SYN: failed connection attempts from NAT'd hosts
			Packets:  1,
			Bytes:    g.ackSize(),
			Ingress:  m.Port,
			Egress:   g.egressFor(dst, m.Port),
		}
		emit(f, LabelBogonLeak)
	}
}

// emitBogonAttack floods one destination with random multicast / class E
// sources (the Figure 10 spikes).
func (g *Generator) emitBogonAttack(emit EmitFunc, t time.Time, count int) {
	// Attack hosts sit in bogon-emitting members with enough traffic of
	// their own that the burst stays a modest share (Figure 4's bogon
	// member shares top out around 10%).
	scales := make([]float64, 0, len(g.s.Members))
	for _, m := range g.s.Members {
		scales = append(scales, m.TrafficScale)
	}
	sort.Float64s(scales)
	median := scales[len(scales)/2]
	var candidates []int
	for i, m := range g.s.Members {
		if m.EmitsBogon && m.TrafficScale >= median {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return
	}
	mi := candidates[g.rng.Intn(len(candidates))]
	m := &g.s.Members[mi]
	dst := g.s.Attack.FloodVictims[g.rng.Intn(len(g.s.Attack.FloodVictims))]
	for i := 0; i < count; i++ {
		var src netx.Addr
		if g.rng.Float64() < 0.5 {
			src = g.hostIn(netx.MustParsePrefix("224.0.0.0/4"))
		} else {
			src = g.hostIn(netx.MustParsePrefix("240.0.0.0/4"))
		}
		f := ipfix.Flow{
			Start:    g.stamp(t),
			SrcAddr:  src,
			DstAddr:  dst,
			SrcPort:  g.ephemeral(),
			DstPort:  g.webPort(),
			Protocol: ipfix.ProtoTCP,
			TCPFlags: 0x02,
			Packets:  1,
			Bytes:    g.ackSize(),
			Ingress:  m.Port,
			Egress:   g.egressFor(dst, m.Port),
		}
		emit(f, LabelBogonAttack)
	}
}

func (g *Generator) emitUnroutedLeak(emit EmitFunc, t time.Time, mi, count int) {
	m := &g.s.Members[mi]
	held := g.s.ASInfo(m.ASIndex).Held
	if len(held) == 0 {
		held = g.heldAll
	}
	if len(held) == 0 {
		return
	}
	for i := 0; i < count; i++ {
		dst := g.randomRoutedHost()
		f := ipfix.Flow{
			Start:    g.stamp(t),
			SrcAddr:  g.hostIn(held[g.rng.Intn(len(held))]),
			DstAddr:  dst,
			SrcPort:  g.ephemeral(),
			DstPort:  g.webPort(),
			Protocol: ipfix.ProtoTCP,
			TCPFlags: 0x02,
			Packets:  1,
			Bytes:    g.ackSize(),
			Ingress:  m.Port,
			Egress:   g.egressFor(dst, m.Port),
		}
		emit(f, LabelUnroutedLeak)
	}
}

// randomUnroutedAddr draws an address outside announced and bogon space:
// half from held prefixes, half rejection-sampled from the whole space.
func (g *Generator) randomUnroutedAddr() netx.Addr {
	if len(g.heldAll) > 0 && g.rng.Float64() < 0.45 {
		return g.hostIn(g.heldAll[g.rng.Intn(len(g.heldAll))])
	}
	for tries := 0; tries < 64; tries++ {
		if a := netx.Addr(g.rng.Uint32()); g.unrouted(a) {
			return a
		}
	}
	if len(g.heldAll) > 0 {
		return g.hostIn(g.heldAll[0])
	}
	return netx.AddrFrom4(100, 200, 0, 1)
}

// bogons is the bogon reference the classifier tests sources against,
// compiled once.
var bogons = bogon.NewReferenceSet()

// unrouted reports whether a is a unicast address (1.0.0.0 up to
// 224.0.0.0) outside the scenario's routable space and outside every bogon
// range: a source the classifier calls Unrouted.
func (g *Generator) unrouted(a netx.Addr) bool {
	return a >= netx.AddrFrom4(1, 0, 0, 0) && a < netx.AddrFrom4(224, 0, 0, 0) &&
		!g.s.RoutableSpace().Contains(a) && !bogons.Contains(a)
}

// emitRandomFlood is a SYN/UDP flood with per-packet random spoofed
// sources aimed at one victim (destination fan-in ratio ≈ 1, Figure 11a).
func (g *Generator) emitRandomFlood(emit EmitFunc, t time.Time, mi, count int) {
	m := &g.s.Members[mi]
	// Top victims are heavy: 70% of attacks hit the first five.
	var dst netx.Addr
	vs := g.s.Attack.FloodVictims
	if g.rng.Float64() < 0.7 {
		dst = vs[g.rng.Intn(5)]
	} else {
		dst = vs[g.rng.Intn(len(vs))]
	}
	steam := g.rng.Float64() < 0.12
	if steam {
		dst = g.s.Attack.SteamVictims[g.rng.Intn(len(g.s.Attack.SteamVictims))]
	}
	for i := 0; i < count; i++ {
		f := ipfix.Flow{
			Start:   g.stamp(t),
			SrcAddr: g.randomUnroutedAddr(),
			DstAddr: dst,
			SrcPort: g.ephemeral(),
			Packets: 1,
			Bytes:   g.ackSize(),
			Ingress: m.Port,
			Egress:  g.egressFor(dst, m.Port),
		}
		label := LabelRandomFlood
		if steam {
			f.Protocol = ipfix.ProtoUDP
			f.DstPort = 27015
			label = LabelSteamFlood
		} else {
			f.Protocol = ipfix.ProtoTCP
			f.DstPort = g.webPort()
			f.TCPFlags = 0x02
		}
		emit(f, label)
	}
}

// spoofRetries is how many uniform draws emitInvalidSpoof makes for an
// announcing AS outside the member's cone before it draws among those ASes
// directly.
const spoofRetries = 50

// emitInvalidSpoof sends spoofed routed sources (outside the member's
// legitimate space) toward routed destinations. A member whose cone covers
// every announcing AS has nothing to spoof and emits nothing.
func (g *Generator) emitInvalidSpoof(emit EmitFunc, t time.Time, mi, count int) {
	m := &g.s.Members[mi]
	cone := &g.cones[mi]
	if g.outside[mi] == 0 {
		return
	}
	for i := 0; i < count; i++ {
		// A routed source from an AS outside the member's cone.
		oi := -1
		for tries := 0; tries < spoofRetries; tries++ {
			if d := g.rng.Intn(g.s.NumASes()); !cone.Test(d) && len(g.s.ASInfo(d).Announced) > 0 {
				oi = d
				break
			}
		}
		if oi < 0 {
			oi = g.outsideAS(mi, g.rng.Intn(g.outside[mi]))
		}
		anns := g.s.ASInfo(oi).Announced
		src := g.hostIn(anns[g.rng.Intn(len(anns))])
		dst := g.randomRoutedHost()
		f := ipfix.Flow{
			Start:    g.stamp(t),
			SrcAddr:  src,
			DstAddr:  dst,
			SrcPort:  g.ephemeral(),
			DstPort:  g.webPort(),
			Protocol: ipfix.ProtoTCP,
			TCPFlags: 0x02,
			Packets:  1,
			Bytes:    g.ackSize(),
			Ingress:  m.Port,
			Egress:   g.egressFor(dst, m.Port),
		}
		emit(f, LabelInvalidSpoof)
	}
}

// outsideAS returns the k-th announcing AS, in index order, outside member
// mi's cone.
func (g *Generator) outsideAS(mi, k int) int {
	cone := &g.cones[mi]
	for as := 0; ; as++ {
		if !cone.Test(as) && len(g.s.ASInfo(as).Announced) > 0 {
			if k == 0 {
				return as
			}
			k--
		}
	}
}

// emitStrayRouter leaks router-interface-sourced packets: mostly ICMP,
// some UDP toward NTP servers, a little TCP (§5.2's breakdown).
func (g *Generator) emitStrayRouter(emit EmitFunc, t time.Time, mi, count int) {
	m := &g.s.Members[mi]
	ips := g.routerIPs[mi]
	if len(ips) == 0 {
		return
	}
	for i := 0; i < count; i++ {
		src := ips[g.rng.Intn(len(ips))]
		dst := g.randomRoutedHost()
		f := ipfix.Flow{
			Start:   g.stamp(t),
			SrcAddr: src,
			DstAddr: dst,
			Packets: 1,
			Bytes:   uint64(40 + g.rng.Intn(21)),
			Ingress: m.Port,
		}
		switch r := g.rng.Float64(); {
		case r < 0.83:
			f.Protocol = ipfix.ProtoICMP // TTL exceeded / echo replies
		case r < 0.974:
			f.Protocol = ipfix.ProtoUDP
			f.SrcPort = g.ephemeral()
			if g.rng.Float64() < 0.763 {
				f.DstPort = 123 // reflection attempts against the router
				f.DstAddr = g.s.Attack.NTPAmplifiers[g.rng.Intn(len(g.s.Attack.NTPAmplifiers))]
			} else {
				f.DstPort = g.ephemeral()
			}
		default:
			f.Protocol = ipfix.ProtoTCP
			f.SrcPort, f.DstPort = g.ephemeral(), g.webPort()
			f.TCPFlags = 0x10
		}
		f.Egress = g.egressFor(f.DstAddr, m.Port)
		emit(f, LabelStrayRouter)
	}
}

// emitNTP produces amplification triggers and, for pairs whose response
// path crosses the IXP, the amplified responses (Figure 11).
func (g *Generator) emitNTP(emit EmitFunc, t time.Time, mi, count int) {
	m := &g.s.Members[mi]
	amps := g.s.Attack.NTPAmplifiers
	victims := g.s.Attack.NTPVictims
	for i := 0; i < count; i++ {
		// Victim selection: heavily skewed to the top 10 (they ARE the
		// top 10 because of this skew).
		vi := g.rng.Intn(len(victims))
		if g.rng.Float64() < 0.55 {
			vi = 0
		} else if g.rng.Float64() < 0.5 {
			vi = 1
		}
		victim := victims[vi]
		// Amplifier strategy per victim (Figure 11b): victim 0 hammers a
		// small amplifier set; victim 1 spreads uniformly; others mixed.
		var amp netx.Addr
		switch {
		case vi == 0:
			amp = amps[g.rng.Intn(minI(90, len(amps)))]
		case vi == 1:
			amp = amps[g.rng.Intn(len(amps))]
		default:
			amp = amps[g.rng.Intn(minI(30*(vi+1), len(amps)))]
		}
		trigSize := uint64(42 + g.rng.Intn(18))
		f := ipfix.Flow{
			Start:    g.stamp(t),
			SrcAddr:  victim, // spoofed
			DstAddr:  amp,
			SrcPort:  uint16(1024 + g.rng.Intn(64512)),
			DstPort:  123,
			Protocol: ipfix.ProtoUDP,
			Packets:  1,
			Bytes:    trigSize,
			Ingress:  m.Port,
			Egress:   g.egressFor(amp, m.Port),
		}
		emit(f, LabelNTPTrigger)

		// The amplifier's response (legitimate source!) crosses the IXP
		// for a fraction of pairs; bytes ≈ 10x at similar packet counts.
		if g.rng.Float64() < 0.5 {
			resp := ipfix.Flow{
				Start:    f.Start.Add(50 * time.Millisecond),
				SrcAddr:  amp,
				DstAddr:  victim,
				SrcPort:  123,
				DstPort:  f.SrcPort,
				Protocol: ipfix.ProtoUDP,
				Packets:  1,
				Bytes:    trigSize * uint64(9+g.rng.Intn(5)),
				Ingress:  g.ampIngress(amp),
				Egress:   g.egressFor(victim, 0),
			}
			emit(resp, LabelNTPResponse)
		}
	}
}

// ampIngress returns the port of the member actually carrying an
// amplifier's address space (the response must enter the IXP through a
// network that legitimately sources it), falling back to a big member.
func (g *Generator) ampIngress(amp netx.Addr) uint32 {
	if as, ok := g.originLPM.Lookup(amp); ok {
		if mi := g.carrier[as]; mi >= 0 {
			return g.s.Members[mi].Port
		}
	}
	return g.s.Members[g.bigMembers[int(uint32(amp)>>8)%len(g.bigMembers)]].Port
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}
