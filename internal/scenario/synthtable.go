package scenario

// A fast synthetic global routing table for build-performance work. The
// full simulation in Build propagates routes per origin across the whole
// topology (O(V^2) at full-table scale: fine for ~6K ASes, hopeless for
// 50K). SynthesizeTable skips route propagation entirely: the topology is
// a provider DAG with memoized first-provider chains to the tier-1 clique,
// and each announcement's AS path is assembled as vantage-up-chain +
// tier-1 peering hop + reversed origin chain. The result has the
// statistical shape pipeline compilation cares about — tens of thousands
// of ASes, hundreds of thousands of distinct (prefix, path) observations,
// multihoming so relationship inference has real votes — and synthesizes
// in well under a second, so benchmarks can rebuild it per run instead of
// shipping a multi-hundred-megabyte MRT fixture.

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
)

// SynthTableConfig parameterizes SynthesizeTable. The zero value is
// unusable; start from FullTableConfig.
type SynthTableConfig struct {
	Seed int64

	// Topology sizes: a tier-1 clique, transit providers below it, stubs
	// at the edge. ASNs are assigned per tier (10+i, 1000+i, 10000+i).
	NumTier1   int
	NumTransit int
	NumStub    int

	// VantagesPerOrigin is how many collector vantages observe each
	// origin's announcements (distinct paths per prefix).
	VantagesPerOrigin int

	// NumMembers sizes the member sample drawn from transits and stubs.
	NumMembers int
}

// FullTableConfig approximates a full-table IXP view: ~50K ASes and a few
// hundred thousand announcements, the scale at which cold pipeline builds
// earn their worker pool.
func FullTableConfig() SynthTableConfig {
	return SynthTableConfig{
		Seed:              1,
		NumTier1:          12,
		NumTransit:        3000,
		NumStub:           47000,
		VantagesPerOrigin: 4,
		NumMembers:        800,
	}
}

// Validate reports configuration errors early.
func (c SynthTableConfig) Validate() error {
	switch {
	case c.NumTier1 < 2:
		return fmt.Errorf("scenario: synth NumTier1 = %d, need >= 2", c.NumTier1)
	case c.NumTransit < 2:
		return fmt.Errorf("scenario: synth NumTransit = %d, need >= 2", c.NumTransit)
	case 10+c.NumTier1 > 1000:
		return fmt.Errorf("scenario: synth NumTier1 = %d, need <= 990 (tier-1 ASNs would reach the transit range)", c.NumTier1)
	case 1000+c.NumTransit > 10000:
		return fmt.Errorf("scenario: synth NumTransit = %d, need <= 9000 (transit ASNs would reach the stub range)", c.NumTransit)
	case c.NumStub < 1:
		return fmt.Errorf("scenario: synth NumStub = %d, need >= 1", c.NumStub)
	case c.VantagesPerOrigin < 1:
		return fmt.Errorf("scenario: synth VantagesPerOrigin = %d, need >= 1", c.VantagesPerOrigin)
	case c.NumMembers < 1:
		return fmt.Errorf("scenario: synth NumMembers = %d, need >= 1", c.NumMembers)
	case c.addressEnd() > unicastEnd:
		return fmt.Errorf("scenario: synth NumTransit = %d and NumStub = %d: the address plan does not fit below 224.0.0.0", c.NumTransit, c.NumStub)
	}
	return nil
}

// addressEnd is where SynthesizeTable's address cursor ends in the worst
// case: every prefix at its largest size (a /19 per transit, a /20 per
// stub, and the /24 every eighth stub adds), each aligned, in allocation
// order from 1.0.0.0. Smaller blocks never end later, so a config whose
// worst case fits always does. Counting stops once past unicastEnd.
func (c SynthTableConfig) addressEnd() uint64 {
	cur := uint64(1) << 24
	alloc := func(bits uint) {
		size := uint64(1) << (32 - bits)
		cur = (cur+size-1)&^(size-1) + size
	}
	for i := 0; i < c.NumTransit && cur <= unicastEnd; i++ {
		alloc(19)
	}
	for s := 0; s < c.NumStub && cur <= unicastEnd; s++ {
		alloc(20)
		if s%8 == 0 {
			alloc(24)
		}
	}
	return cur
}

// SynthTable is the synthesized routing view.
type SynthTable struct {
	Cfg SynthTableConfig
	// Anns is the distinct (prefix, AS path) observation set.
	Anns []bgp.Announcement
	// MemberASNs is a deterministic member sample (transits and stubs).
	MemberASNs []bgp.ASN
	// NumASes counts every ASN appearing in the topology.
	NumASes int
}

// SynthesizeTable builds the table. Deterministic given Cfg.Seed.
func SynthesizeTable(cfg SynthTableConfig) (*SynthTable, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	tier1 := make([]bgp.ASN, cfg.NumTier1)
	for i := range tier1 {
		tier1[i] = bgp.ASN(10 + i)
	}
	transit := make([]bgp.ASN, cfg.NumTransit)
	for i := range transit {
		transit[i] = bgp.ASN(1000 + i)
	}

	// Provider DAG over transits: early transits attach straight to the
	// tier-1 clique, later ones to a transit in the first half of their
	// index range, so chain depth grows logarithmically. chain[i] is the
	// memoized up-path from transit i to (and including) its tier-1.
	prov := make([]int, cfg.NumTransit) // provider transit index, -1 = tier-1
	t1of := make([]int, cfg.NumTransit) // tier-1 index terminating the chain
	chain := make([][]bgp.ASN, cfg.NumTransit)
	second := make([]int, cfg.NumTransit) // second provider, -2 = none
	for i := 0; i < cfg.NumTransit; i++ {
		if i < cfg.NumTier1*4 || i < 2 {
			prov[i] = -1
			t1of[i] = rng.Intn(cfg.NumTier1)
			chain[i] = []bgp.ASN{transit[i], tier1[t1of[i]]}
		} else {
			p := rng.Intn(i / 2)
			prov[i] = p
			t1of[i] = t1of[p]
			chain[i] = append([]bgp.ASN{transit[i]}, chain[p]...)
		}
		second[i] = -2
		if i >= 2 && i%3 == 0 {
			// Multihomed transit: an independent second provider gives the
			// relationship inference genuine cross-links.
			if s := rng.Intn(i); s != prov[i] {
				second[i] = s
			}
		}
	}

	// Vantages: route-collector peers drawn from well-connected transits.
	nVant := 4 * cfg.VantagesPerOrigin
	if nVant > cfg.NumTransit {
		nVant = cfg.NumTransit
	}
	vantages := make([]int, nVant)
	for i := range vantages {
		vantages[i] = rng.Intn(cfg.NumTransit)
	}

	// Address allocation: a cursor over unicast space, aligned per prefix.
	// Validate bounded its worst case below unicastEnd.
	cur := uint32(0x01000000)
	alloc := func(bits uint8) netx.Prefix {
		size := uint32(1) << (32 - bits)
		cur = (cur + size - 1) &^ (size - 1)
		p := netx.Prefix{Addr: netx.Addr(cur), Bits: bits}
		cur += size
		return p
	}

	// assemble builds the AS path seen at vantage v for an origin whose
	// up-chain (origin first, tier-1 last) is oc: vantage up-chain, a
	// tier-1 peering hop when the chains peak at different tier-1s, then
	// the origin chain walked back down.
	path := make([]bgp.ASN, 0, 16)
	assemble := func(v int, oc []bgp.ASN) []bgp.ASN {
		up := chain[v]
		path = path[:0]
		path = append(path, up...)
		top := len(oc) - 1
		if oc[top] == up[len(up)-1] {
			top-- // same tier-1: no peering hop
		}
		for i := top; i >= 0; i-- {
			path = append(path, oc[i])
		}
		out := make([]bgp.ASN, len(path))
		copy(out, path)
		return out
	}

	st := &SynthTable{Cfg: cfg, NumASes: cfg.NumTier1 + cfg.NumTransit + cfg.NumStub}
	st.Anns = make([]bgp.Announcement, 0,
		(cfg.NumTransit+cfg.NumStub)*(cfg.VantagesPerOrigin+1))

	announce := func(p netx.Prefix, oc []bgp.ASN) {
		for k := 0; k < cfg.VantagesPerOrigin; k++ {
			v := vantages[rng.Intn(len(vantages))]
			st.Anns = append(st.Anns, bgp.Announcement{
				Prefix: p, Path: assemble(v, oc), Origin: oc[0],
			})
		}
	}

	// Transit origins: one prefix each, announced through the primary
	// chain, plus through the second provider when multihomed.
	for i := 0; i < cfg.NumTransit; i++ {
		p := alloc(uint8(19 + rng.Intn(4)))
		announce(p, chain[i])
		if s := second[i]; s >= 0 {
			alt := append([]bgp.ASN{transit[i]}, chain[s]...)
			announce(p, alt)
		}
	}

	// Stub origins: ASN 10000+s, one or two providers among the transits,
	// one prefix (every eighth stub holds a second, more specific one).
	oc := make([]bgp.ASN, 0, 16)
	for s := 0; s < cfg.NumStub; s++ {
		asn := bgp.ASN(10000 + s)
		p1 := rng.Intn(cfg.NumTransit)
		oc = append(oc[:0], asn)
		oc = append(oc, chain[p1]...)
		origin := append([]bgp.ASN(nil), oc...)
		p := alloc(uint8(20 + rng.Intn(5)))
		announce(p, origin)
		if s%4 == 0 {
			p2 := rng.Intn(cfg.NumTransit)
			if p2 != p1 {
				alt := append([]bgp.ASN{asn}, chain[p2]...)
				announce(p, alt)
			}
		}
		if s%8 == 0 {
			announce(alloc(24), origin)
		}
	}

	// Member sample: a deterministic stride over stubs, topped up with
	// transits, mirroring real IXP membership (edge-heavy).
	for s := 0; s < cfg.NumStub && len(st.MemberASNs) < cfg.NumMembers*3/4; s += 1 + cfg.NumStub/cfg.NumMembers {
		st.MemberASNs = append(st.MemberASNs, bgp.ASN(10000+s))
	}
	for i := 0; i < cfg.NumTransit && len(st.MemberASNs) < cfg.NumMembers; i += 1 + 4*cfg.NumTransit/cfg.NumMembers {
		st.MemberASNs = append(st.MemberASNs, transit[i])
	}
	return st, nil
}

// WriteMRT serializes the table as an MRT stream (peer index table plus
// RIB records grouped by prefix), loadable by bgp.RIB.LoadMRT and
// cmd/classify.
func (st *SynthTable) WriteMRT(w io.Writer) error {
	mw := bgp.NewWriter(w)
	ts := time.Date(2017, 2, 5, 0, 0, 0, 0, time.UTC)

	table := &bgp.PeerIndexTable{
		CollectorID: netx.AddrFrom4(198, 51, 100, 2),
		ViewName:    "spoofscope-synth",
	}
	peerIdx := make(map[bgp.ASN]uint16)
	for _, a := range st.Anns {
		v := a.Path[0]
		if _, ok := peerIdx[v]; ok {
			continue
		}
		i := uint16(len(table.Peers))
		peerIdx[v] = i
		table.Peers = append(table.Peers, bgp.Peer{
			BGPID: netx.Addr(0x0a010000 + uint32(i)),
			Addr:  netx.Addr(0xc6336501 + uint32(i)),
			AS:    v,
		})
	}
	if err := mw.WritePeerIndexTable(ts, table); err != nil {
		return err
	}

	byPrefix := make(map[netx.Prefix][]int)
	var order []netx.Prefix
	for i, a := range st.Anns {
		if _, ok := byPrefix[a.Prefix]; !ok {
			order = append(order, a.Prefix)
		}
		byPrefix[a.Prefix] = append(byPrefix[a.Prefix], i)
	}
	for seq, p := range order {
		rec := &bgp.RIBRecord{Sequence: uint32(seq), Prefix: p}
		for _, i := range byPrefix[p] {
			a := st.Anns[i]
			pi := peerIdx[a.Path[0]]
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
		if err := mw.WriteRIB(ts, rec); err != nil {
			return err
		}
	}
	return mw.Flush()
}
