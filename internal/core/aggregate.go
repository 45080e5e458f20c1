package core

import (
	"sort"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
)

// TrafficClass indexes the aggregate counters: the AS-agnostic classes
// plus one Invalid slot per approach.
type TrafficClass int

// Aggregate classes. InvalidFull is the default "Invalid" of the paper's
// analyses after §4.3.
const (
	TCRegular TrafficClass = iota
	TCBogon
	TCUnrouted
	TCInvalidNaive
	TCInvalidCC
	TCInvalidFull
	numTrafficClasses
)

// NumTrafficClasses is the number of aggregate traffic classes — the length
// of every per-class tally. Exported so cluster telemetry can enumerate
// classes without restating the enum.
const NumTrafficClasses = int(numTrafficClasses)

func (c TrafficClass) String() string {
	switch c {
	case TCRegular:
		return "regular"
	case TCBogon:
		return "bogon"
	case TCUnrouted:
		return "unrouted"
	case TCInvalidNaive:
		return "invalid-naive"
	case TCInvalidCC:
		return "invalid-cc"
	case TCInvalidFull:
		return "invalid-full"
	default:
		return "?"
	}
}

// Counter accumulates sampled packet and byte counts.
type Counter struct {
	Flows   uint64
	Packets uint64
	Bytes   uint64
}

func (c *Counter) add(f *ipfix.Flow) {
	c.Flows++
	c.Packets += f.Packets
	c.Bytes += f.Bytes
}

// MemberStats is the per-member aggregate.
type MemberStats struct {
	ASN     bgp.ASN
	Port    uint32
	Total   Counter
	ByClass [numTrafficClasses]Counter
	// RouterIPInvalid counts Invalid-FULL packets with router sources.
	RouterIPInvalid uint64
	// InvalidOrigins maps origin AS -> Invalid-FULL packets, every origin
	// counted: at most one entry per origin AS of the table, and exact, so
	// Add, Merge and the checkpoint decoder agree on any partition.
	InvalidOrigins map[bgp.ASN]uint64
}

// DstStats tracks per-destination fan-in for spoofed classes (Figure 11a).
type DstStats struct {
	Packets uint64
	// Srcs is the exact distinct-source set, capped at fanInCap entries;
	// SrcOverflow counts sources dropped beyond the cap. Srcs stays nil
	// until a second distinct source arrives — the first is inlined in
	// src1 — so the common single-source destination allocates nothing.
	// Read the set through SrcCount/EachSrc, not len/range on Srcs.
	Srcs        map[netx.Addr]struct{}
	SrcOverflow uint64

	src1 netx.Addr
	has1 bool
}

const fanInCap = 200000

// addSrc records one source, enforcing the fanInCap exactly as the
// map-only representation did (the cap dwarfs the inline slot, so the
// inline stage can never interact with it). The set a second source needs
// comes from the owning aggregator's allocator.
func (ds *DstStats) addSrc(a netx.Addr, nodes *nodeAlloc) {
	if ds.Srcs == nil {
		if !ds.has1 {
			ds.src1, ds.has1 = a, true
			return
		}
		if ds.src1 == a {
			return
		}
		ds.Srcs = nodes.newSrcs(2)
		ds.Srcs[ds.src1] = struct{}{}
	}
	if len(ds.Srcs) < fanInCap {
		ds.Srcs[a] = struct{}{}
	} else if _, ok := ds.Srcs[a]; !ok {
		ds.SrcOverflow++
	}
}

// SrcCount returns the number of distinct recorded sources.
func (ds *DstStats) SrcCount() int {
	if ds.Srcs != nil {
		return len(ds.Srcs)
	}
	if ds.has1 {
		return 1
	}
	return 0
}

// EachSrc calls fn for every recorded source, in no particular order.
func (ds *DstStats) EachSrc(fn func(netx.Addr)) {
	if ds.Srcs != nil {
		for a := range ds.Srcs {
			fn(a)
		}
		return
	}
	if ds.has1 {
		fn(ds.src1)
	}
}

// PortKey identifies a port-mix bucket.
type PortKey struct {
	Class TrafficClass
	Proto uint8
	Dir   uint8 // 0 = dst port, 1 = src port
	Port  uint16
}

// Aggregator accumulates everything the experiment drivers need in one
// pass over the flows.
type Aggregator struct {
	start        time.Time
	bucket       time.Duration
	members      map[uint32]*MemberStats
	Total        [numTrafficClasses]Counter
	GrandTotal   Counter
	UnknownPorts uint64

	// Series is the per-bucket packet time series per class, nil for a
	// class with no traffic.
	Series [numTrafficClasses][]uint64

	// SizeHist counts packets by packet-size bin (Bytes/Packets) per class:
	// a port-mix page per class over sizes in [0, 65536), and an exact map
	// for the quotients outside it (see porttab.go).
	SizeHist *SizeTab

	// Ports is the port mix (top-N extraction happens at render time), in
	// dense per-(class,proto,dir) pages (see porttab.go).
	Ports *PortTab

	// Slash8Src / Slash8Dst are the Figure 10 address-structure bins, nil
	// for a class with no traffic.
	Slash8Src [numTrafficClasses]*[256]uint64
	Slash8Dst [numTrafficClasses]*[256]uint64

	// FanIn tracks destinations of Bogon/Unrouted/Invalid-FULL traffic: the
	// map is non-nil for exactly those three classes.
	FanIn [numTrafficClasses]map[netx.Addr]*DstStats

	// NTP amplification bookkeeping (dst port 123 Invalid-FULL UDP):
	// TriggerPairs[victim][amplifier] = packets.
	TriggerPairs map[netx.Addr]map[netx.Addr]uint64
	// ResponsePairs[amplifier][victim] accumulates valid traffic from
	// port 123 (candidate amplifier responses).
	ResponsePairs map[netx.Addr]map[netx.Addr]uint64
	// TriggerSeries / ResponseSeries are Figure 11c's per-bucket series.
	TriggerSeries  []Counter
	ResponseSeries []Counter

	// lastPort/lastMember memoize the most recent members lookup: flows
	// arrive clustered by ingress port, so Add usually skips the map hit.
	// Coherent across Merge because an existing port's *MemberStats is
	// only ever mutated in place, never replaced.
	lastPort   uint32
	lastMember *MemberStats

	// Bucket-index memo: flows arrive roughly time-ordered, so consecutive
	// Adds usually land in the same series bucket. biLo and biHi bound the
	// Unix seconds s, biLo <= s < biHi, whose whole second [s, s+1) lies
	// inside bucket biIdx, so a hit compares t.Unix() and pays neither
	// time.Time.Sub nor a division. start and bucket are immutable, so the
	// memo never needs invalidation. It stays empty (biLo == biHi) while
	// biWall is false: a start that holds a monotonic clock reading makes Sub
	// measure a flow start holding one too on that clock, not on the wall.
	biLo, biHi int64
	biIdx      int
	biWall     bool

	// nodes hands out every inner node of the maps above (see nodes.go).
	nodes nodeAlloc
}

// maxSeriesBuckets bounds the time series: a flow whose bucket index is
// this or more is left out of Series, TriggerSeries and ResponseSeries, as a
// flow before start is, and the checkpoint decoder refuses a longer series.
// Without it one far-future flow start grows every series to its index —
// 97 MB for a start of 2^62 ms in hour buckets. 1<<20 buckets are two years
// of minute buckets, and 8 MB per class.
const maxSeriesBuckets = 1 << 20

// bucketHit answers from the memo: t's bucket index, and whether the memo
// holds it. It makes no call, so it inlines into Add.
func (a *Aggregator) bucketHit(t time.Time) (int, bool) {
	s := t.Unix()
	return a.biIdx, a.biLo <= s && s < a.biHi
}

// bucketIndex maps a flow start to its series bucket: int(t.Sub(start) /
// bucket) exactly, including the truncation of slightly-negative offsets
// toward bucket zero and Sub's saturation. A miss memoizes the bucket's
// whole seconds when the offset is not negative and the bucket's end is a
// Duration.
func (a *Aggregator) bucketIndex(t time.Time) int {
	if bi, ok := a.bucketHit(t); ok {
		return bi
	}
	d := t.Sub(a.start)
	bi := int(d / a.bucket)
	if lo := time.Duration(bi) * a.bucket; a.biWall && d >= 0 && lo+a.bucket > lo {
		l := a.start.Add(lo)
		a.biLo = l.Unix()
		if l.Nanosecond() != 0 {
			a.biLo++
		}
		a.biHi, a.biIdx = a.start.Add(lo+a.bucket).Unix(), bi
	}
	return bi
}

// NewAggregator creates an aggregator bucketing time from start.
func NewAggregator(start time.Time, bucket time.Duration) *Aggregator {
	a := &Aggregator{
		start:         start,
		bucket:        bucket,
		biWall:        start == start.Round(0),
		members:       make(map[uint32]*MemberStats),
		SizeHist:      NewSizeTab(),
		Ports:         NewPortTab(),
		TriggerPairs:  make(map[netx.Addr]map[netx.Addr]uint64),
		ResponsePairs: make(map[netx.Addr]map[netx.Addr]uint64),
	}
	for _, c := range []TrafficClass{TCBogon, TCUnrouted, TCInvalidFull} {
		a.FanIn[c] = make(map[netx.Addr]*DstStats)
	}
	return a
}

// Reset clears the aggregate back to empty while keeping everything it has
// allocated: the top-level maps keep their buckets, the port and size pages
// stay in place, and every inner node — member records and their origin maps,
// fan-in destinations and source sets, /8 bins, series backing arrays, NTP
// pair maps — is emptied and kept by the node allocator, which hands it back
// to the next Add or Merge that needs one. A drain worker reuses one
// private shard from fold to fold this way, and a refill over keys the shard
// has seen before allocates nothing. start and bucket are preserved.
//
// Safe only on an aggregator the caller exclusively owns — i.e. after Merge
// has folded it into the canonical aggregate (Merge never retains references
// into its argument). Reset invalidates every pointer and container taken
// from the aggregate before it: *MemberStats from Members/Member, *DstStats
// and inner maps read out of FanIn, TriggerPairs and ResponsePairs, Series
// slices and /8 bins are recycled, so a holder would watch them turn into
// some other key's state. The drain worker's spill shard, which never hands
// any out, is the only production caller.
func (a *Aggregator) Reset() {
	a.GrandTotal = Counter{}
	a.Total = [numTrafficClasses]Counter{}
	a.UnknownPorts = 0
	// The nodes are kept, the per-class slots and map keys are dropped: a
	// class's presence is semantic in the canonical encoding (a sequential
	// run never creates an empty Series, SizeHist or Slash8 entry), so a
	// reused aggregator must not leak present-but-empty classes into the
	// canonical aggregate via Merge. clear() keeps the map buckets.
	a.recycleNodes()
	clear(a.members)
	a.Series = [numTrafficClasses][]uint64{}
	a.SizeHist.Reset()
	a.Ports.Reset()
	a.Slash8Src = [numTrafficClasses]*[256]uint64{}
	a.Slash8Dst = [numTrafficClasses]*[256]uint64{}
	for _, m := range a.FanIn {
		clear(m)
	}
	clear(a.TriggerPairs)
	clear(a.ResponsePairs)
	a.TriggerSeries = a.TriggerSeries[:0]
	a.ResponseSeries = a.ResponseSeries[:0]
	a.lastPort, a.lastMember = 0, nil
}

// classesInto writes the aggregate classes a verdict contributes to into
// out and returns how many. The fixed-size buffer keeps the per-flow hot
// path free of a slice allocation for invalid verdicts; the function is
// small enough to inline into Add.
func classesInto(v Verdict, out *[3]TrafficClass) int {
	c := TCRegular
	switch v.Class {
	case ClassBogon:
		c = TCBogon
	case ClassUnrouted:
		c = TCUnrouted
	case ClassValid:
	default:
		n := 0
		for ap, ic := range [numApproaches]TrafficClass{TCInvalidNaive, TCInvalidCC, TCInvalidFull} {
			if v.Invalid[ap] {
				out[n] = ic
				n++
			}
		}
		return n
	}
	out[0] = c
	return 1
}

// primaryClass is the class used for the single-class breakdowns (size
// histograms, time series, ports, address structure): the paper's choice
// of Invalid FULL as the working Invalid definition.
func primaryClass(v Verdict) TrafficClass {
	switch v.Class {
	case ClassBogon:
		return TCBogon
	case ClassUnrouted:
		return TCUnrouted
	}
	if v.Invalid[ApproachFull] {
		return TCInvalidFull
	}
	return TCRegular
}

// Add accumulates one classified flow.
func (a *Aggregator) Add(f ipfix.Flow, v Verdict) {
	a.GrandTotal.add(&f)
	if !v.KnownMember {
		a.UnknownPorts++
	}

	ms := a.lastMember
	if ms == nil || a.lastPort != f.Ingress {
		ms = a.members[f.Ingress]
		if ms == nil {
			ms = a.nodes.newMember(f.Ingress, 0)
			a.members[f.Ingress] = ms
		}
		a.lastPort, a.lastMember = f.Ingress, ms
	}
	ms.Total.add(&f)

	var cls [3]TrafficClass
	for _, c := range cls[:classesInto(v, &cls)] {
		a.Total[c].add(&f)
		ms.ByClass[c].add(&f)
	}
	pc := primaryClass(v)
	// Flows invalid only under NAIVE/CC (not FULL) count as regular in the
	// FULL-based view; valid flows were already added via classesInto.
	if pc == TCRegular && v.Class == ClassInvalid {
		a.Total[TCRegular].add(&f)
		ms.ByClass[TCRegular].add(&f)
	}

	if pc == TCInvalidFull {
		if v.RouterIP {
			ms.RouterIPInvalid += f.Packets
		}
		ms.InvalidOrigins[v.SrcOrigin] += f.Packets
	}

	// Time series.
	bi, ok := a.bucketHit(f.Start)
	if !ok {
		bi = a.bucketIndex(f.Start)
	}
	if uint(bi) < maxSeriesBuckets {
		s := a.Series[pc]
		if len(s) <= bi {
			if s == nil {
				s = a.nodes.newSeries(pc)
			}
			for len(s) <= bi {
				s = append(s, 0)
			}
			a.Series[pc] = s
		}
		s[bi] += f.Packets
	}

	// Packet sizes, in the class's page, looked up once.
	if f.Packets > 0 {
		sp := a.SizeHist.page(pc)
		if size := f.Bytes / f.Packets; size < 1<<16 {
			if !sp.addFast(uint16(size), f.Packets) {
				sp.portPage.add(uint16(size), f.Packets)
			}
		} else {
			sp.spill[int(size)] += f.Packets
		}
	}

	// Port mix: one lookup resolves the pages of both directions.
	if pi := protoIdx(f.Protocol); pi >= 0 {
		pp := a.Ports.pair(pc, pi)
		if dst := pp[0]; !dst.addFast(f.DstPort, f.Packets) {
			dst.add(f.DstPort, f.Packets)
		}
		if src := pp[1]; !src.addFast(f.SrcPort, f.Packets) {
			src.add(f.SrcPort, f.Packets)
		}
	}

	// Address structure.
	src8 := a.Slash8Src[pc]
	if src8 == nil {
		src8 = a.nodes.new8()
		a.Slash8Src[pc] = src8
	}
	src8[f.SrcAddr.Slash8()] += f.Packets
	dst8 := a.Slash8Dst[pc]
	if dst8 == nil {
		dst8 = a.nodes.new8()
		a.Slash8Dst[pc] = dst8
	}
	dst8[f.DstAddr.Slash8()] += f.Packets

	// Destination fan-in for spoofed classes.
	if m := a.FanIn[pc]; m != nil {
		ds := m[f.DstAddr]
		if ds == nil {
			ds = a.nodes.newDst()
			m[f.DstAddr] = ds
		}
		ds.Packets += f.Packets
		ds.addSrc(f.SrcAddr, &a.nodes)
	}

	// NTP amplification bookkeeping.
	if f.Protocol == ipfix.ProtoUDP {
		switch {
		case f.DstPort == 123 && pc == TCInvalidFull:
			m := a.TriggerPairs[f.SrcAddr] // victim = spoofed source
			if m == nil {
				m = a.nodes.newPairs(0)
				a.TriggerPairs[f.SrcAddr] = m
			}
			m[f.DstAddr] += f.Packets
			a.TriggerSeries = extendSeries(a.TriggerSeries, bi, &f)
		case f.SrcPort == 123 && pc == TCRegular:
			m := a.ResponsePairs[f.SrcAddr] // amplifier responds
			if m == nil {
				m = a.nodes.newPairs(0)
				a.ResponsePairs[f.SrcAddr] = m
			}
			m[f.DstAddr] += f.Packets
			a.ResponseSeries = extendSeries(a.ResponseSeries, bi, &f)
		}
	}
}

// AddBatch accumulates a batch of classified flows. It is exactly an
// in-order loop over Add — arrival order is preserved so the cap-sensitive
// structures (fan-in source sets, invalid-origin maps) and the canonical
// checkpoint encoding match the per-flow path byte for byte — and exists so
// batch consumers amortize the call overhead.
func (a *Aggregator) AddBatch(flows []ipfix.Flow, verdicts []Verdict) {
	if len(flows) != len(verdicts) {
		panic("core: AddBatch flows/verdicts length mismatch")
	}
	for i := range flows {
		a.Add(flows[i], verdicts[i])
	}
}

func extendSeries(s []Counter, bi int, f *ipfix.Flow) []Counter {
	if uint(bi) >= maxSeriesBuckets {
		return s
	}
	for len(s) <= bi {
		s = append(s, Counter{})
	}
	s[bi].Packets += f.Packets
	s[bi].Bytes += f.Bytes
	return s
}

// Members returns per-member stats sorted by port.
func (a *Aggregator) Members() []*MemberStats {
	out := make([]*MemberStats, 0, len(a.members))
	for _, m := range a.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Port < out[j].Port })
	return out
}

// SetMemberASN back-fills the ASN on member stats (ports arrive from
// flows; ASNs from the member table).
func (a *Aggregator) SetMemberASN(port uint32, asn bgp.ASN) {
	if m := a.members[port]; m != nil {
		m.ASN = asn
	}
}

// ContributingMembers counts members with any traffic in the class.
func (a *Aggregator) ContributingMembers(c TrafficClass) int {
	n := 0
	for _, m := range a.members {
		if m.ByClass[c].Packets > 0 {
			n++
		}
	}
	return n
}
