// Package core implements the paper's primary contribution: the passive
// spoofing classification pipeline of Figure 3. Each flow's source address
// is matched, strictly sequentially, against (1) the bogon list, (2) the
// routed address space, and (3) the per-member valid address space under
// each of the three inference approaches (Naive, Customer Cone, Full Cone),
// yielding mutually exclusive classes Bogon / Unrouted / Invalid / Valid.
//
// The pipeline additionally tags Invalid traffic whose source is a known
// router interface address (stray traffic, §5.2) when a traceroute-derived
// router set is attached.
package core

import (
	"fmt"
	"sync"

	"spoofscope/internal/astopo"
	"spoofscope/internal/bgp"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
)

// Class is the AS-agnostic classification outcome.
type Class uint8

// Classes, mutually exclusive, in pipeline order.
const (
	ClassValid Class = iota
	ClassBogon
	ClassUnrouted
	ClassInvalid // under at least the approach consulted; see Verdict
)

func (c Class) String() string {
	switch c {
	case ClassValid:
		return "valid"
	case ClassBogon:
		return "bogon"
	case ClassUnrouted:
		return "unrouted"
	case ClassInvalid:
		return "invalid"
	default:
		return "unknown"
	}
}

// Approach indexes the three valid-space inference methods in Verdict.
type Approach int

// Approaches, ordered as in the paper's Table 1 discussion.
const (
	ApproachNaive Approach = iota
	ApproachCC
	ApproachFull
	numApproaches
)

func (a Approach) String() string {
	switch a {
	case ApproachNaive:
		return "NAIVE"
	case ApproachCC:
		return "CC"
	case ApproachFull:
		return "FULL"
	default:
		return "?"
	}
}

// Verdict is the classification of one flow.
type Verdict struct {
	// Class is ClassBogon, ClassUnrouted, or — when any approach flags the
	// source invalid — ClassInvalid; ClassValid otherwise. For
	// ClassInvalid consult Invalid[approach] for the per-approach view.
	Class Class
	// Invalid reports per-approach invalidity (meaningful only when Class
	// is ClassInvalid or ClassValid: bogon/unrouted short-circuit).
	Invalid [numApproaches]bool
	// SrcOrigin is the origin AS of the most specific routed prefix
	// covering the source (zero for bogon/unrouted sources).
	SrcOrigin bgp.ASN
	// RouterIP marks sources that are known router interface addresses.
	RouterIP bool
	// KnownMember is false when the ingress port has no member mapping;
	// such flows are counted but not classified member-specifically.
	KnownMember bool
}

// InvalidFor reports whether the flow is Invalid under the approach (the
// per-approach "class" of Table 1: Bogon and Unrouted short-circuit).
func (v Verdict) InvalidFor(a Approach) bool {
	return v.Class != ClassBogon && v.Class != ClassUnrouted && v.Invalid[a]
}

// MemberInfo identifies one IXP member for the pipeline.
type MemberInfo struct {
	ASN  bgp.ASN
	Port uint32
}

// Options tunes pipeline construction.
type Options struct {
	// Orgs lists multi-AS organisation groups to merge (may be nil).
	Orgs [][]bgp.ASN
	// Routers, when non-nil, tags router-sourced traffic: the traceroute-
	// derived router interface addresses, built once by the caller.
	Routers *netx.AddrSet
	// FullConeDepth, when > 0, bounds the Full Cone to that many directed
	// hops per member instead of the full transitive closure — the
	// paper's future-work "tighter bounds" knob. 0 means unlimited.
	FullConeDepth int
	// ExtraLinks injects AS links known from out-of-band sources (WHOIS
	// import/export policies, looking glasses) into the graph before cone
	// computation — the paper's future-work proactive enrichment.
	ExtraLinks [][2]bgp.ASN
}

// memberState is the compiled per-member validity data. The naive valid
// space is naiveEnts, a bitset over the origin table's entry indexes: every
// naive prefix is an announced prefix, so it IS an origin-table entry, and
// "some naive prefix covers src" becomes "some entry on src's precomputed
// ancestor chain has its bit set" — a few bit tests on data the classifier
// already holds, instead of a second LPM probe per member.
type memberState struct {
	info      MemberInfo
	asIdx     int          // dense index in the AS graph, -1 if absent
	naiveEnts *netx.Bitset // naive valid space as origin-entry bits
	validCC   *netx.Bitset
	validFC   *netx.Bitset
	// extra is the §4.4 whitelist added by false-positive resolution, in
	// AllowSource order; extraLPM is its index, rebuilt on each (rare)
	// AllowSource. Both nil until the first correction.
	extra    []netx.Prefix
	extraLPM *netx.FlatLPM
}

// originRef is one distinct origin AS of the routed table, resolved at
// compile time: the ASN for verdict attribution plus its dense graph index
// for the cone membership tests (-1 when the origin is absent from the
// graph). The origin LPM stores indices into this table, so Classify's
// inner loop pays an array read instead of a per-covering-prefix map hit.
type originRef struct {
	asn bgp.ASN
	idx int32
}

// densePortCap bounds the size of the dense port→member table; member
// ports above it (unusual — IXP port IDs are small) fall back to the map.
const densePortCap = 1 << 16

// Pipeline is the compiled classifier. Classification is read-only and
// safe for concurrent use; AllowSource mutates and must not race Classify.
type Pipeline struct {
	// origins maps routed prefixes to indices into originTab
	// (MOAS-resolved). The bogon prefixes are merged into the same slab
	// under the bogonSlot sentinel value, so one FindChain answers the bogon
	// test, the unrouted test, and the covering-origin walk together;
	// bogonEntry[e] precomputes "entry e's chain carries the sentinel", i.e.
	// a bogon prefix covers every address that resolves to e.
	origins    *netx.FlatLPM
	bogonEntry []bool
	graph      *astopo.Graph
	routers    *netx.AddrSet // Options.Routers; nil = no router tagging

	originTab []originRef

	byPort      map[uint32]*memberState
	byPortDense []*memberState // ports < densePortCap, compiled with the members
	byASN       map[bgp.ASN]*memberState

	prefixes int // routed prefixes: one origin assignment each

	// anns is the table the build compiled, and hops and runEnds its hop
	// slab and prefix-run ends (bgp.RIB.Hops), which the members' naive
	// rows are filled from. anns backs RoutedSpace's routed space,
	// computed once on first use, which may be called from several
	// goroutines.
	anns        []bgp.Announcement
	hops        []bgp.ASN
	runEnds     []int
	routedOnce  sync.Once
	routedSpace netx.IntervalSet

	// fp and optsKey record what this pipeline was compiled from, so
	// RebuildPipeline can prove which layers a fresh snapshot leaves valid.
	fp      bgp.Fingerprint
	optsKey uint64
}

// NewPipeline compiles a classifier from a RIB and the member list. The
// index stages and the member tables with their cone walks run on a worker
// pool of GOMAXPROCS goroutines (see build.go); RebuildPipeline is the
// incremental variant for epoch rebuilds against a previous pipeline.
func NewPipeline(rib *bgp.RIB, members []MemberInfo, opts Options) (*Pipeline, error) {
	p, _, err := RebuildPipeline(nil, rib, members, opts)
	return p, err
}

// member resolves an ingress port to its compiled member state, through
// the dense table when the port is in range.
func (p *Pipeline) member(port uint32) (*memberState, bool) {
	if int64(port) < int64(len(p.byPortDense)) {
		ms := p.byPortDense[port]
		return ms, ms != nil
	}
	ms, ok := p.byPort[port]
	return ms, ok
}

// Graph exposes the AS graph (read-only) for analyses.
func (p *Pipeline) Graph() *astopo.Graph { return p.graph }

// RoutedSpace returns the routed address space, the union of the table's
// prefixes, computed on first use from the table's prefix runs. Only the
// reports that size the routed space ask for it, so a build does not.
func (p *Pipeline) RoutedSpace() netx.IntervalSet {
	p.routedOnce.Do(func() {
		var prefixes []netx.Prefix
		for j, a := range p.anns {
			if j == 0 || a.Prefix != p.anns[j-1].Prefix {
				prefixes = append(prefixes, a.Prefix)
			}
		}
		p.routedSpace = netx.IntervalSetOfPrefixes(prefixes...)
	})
	return p.routedSpace
}

// AllowSource whitelists an address range for one member — the §4.4
// correction applied after WHOIS evidence confirms a missing relationship.
func (p *Pipeline) AllowSource(member bgp.ASN, prefix netx.Prefix) error {
	ms, ok := p.byASN[member]
	if !ok {
		return fmt.Errorf("core: unknown member %s", member)
	}
	ms.extra = append(ms.extra, prefix)
	ms.extraLPM = netx.BuildFlatLPM(ms.extra, nil)
	return nil
}

// Classify runs the Figure 3 pipeline on one flow.
func (p *Pipeline) Classify(f ipfix.Flow) Verdict {
	ms, known := p.member(f.Ingress)
	return p.classify(f.SrcAddr, ms, known)
}

// classify is the Figure 3 sequence. One FindChain against the merged
// origins+bogons slab yields, zero-copy, everything the sequence consults:
// the bogon test (the hit entry's precomputed bogonEntry flag), the unrouted
// test (no hit), the covering origin slots (vals — untruncated, so nesting
// of any depth is handled exactly), and the chain entry indexes (ents) the
// naive bitset test reads. ms/known is the caller's resolved ingress member
// (ClassifyBatch memoizes it across a batch).
func (p *Pipeline) classify(src netx.Addr, ms *memberState, known bool) (v Verdict) {
	e, vals, ents := p.origins.FindChain(src)
	if e < 0 {
		v.Class = ClassUnrouted
		v.KnownMember = known
		return v
	}
	if p.bogonEntry[e] {
		v.Class = ClassBogon
		v.KnownMember = known
		return v
	}
	// The chain of an unflagged entry holds routed prefixes only, so every
	// val is an originTab slot.
	n := len(vals)
	v.SrcOrigin = p.originTab[vals[n-1]].asn
	if p.routers != nil {
		v.RouterIP = p.routers.Contains(src)
	}
	if !known {
		v.Class = ClassValid
		return v
	}
	v.KnownMember = true
	if ms.asIdx < 0 {
		v.Class = ClassValid
		return v
	}
	if ms.extraLPM != nil && ms.extraLPM.Contains(src) {
		v.Class = ClassValid
		return v
	}
	// A source is valid under an approach when ANY covering routed prefix
	// is attributable to the member: covering less-specifics matter when a
	// customer's PA sub-prefix has a different origin than the provider
	// block that actually makes the space legitimate.
	// Naive prefixes are announced prefixes, so they sit in the origin
	// table: src is naively valid iff some covering entry is marked.
	naiveValid := false
	for i := 0; i < n; i++ {
		if ms.naiveEnts.Test(int(ents[i])) {
			naiveValid = true
			break
		}
	}
	ccValid, fcValid := false, false
	for i := 0; i < n; i++ {
		oi := int(p.originTab[vals[i]].idx)
		if oi < 0 {
			continue
		}
		if ms.validCC.Test(oi) {
			ccValid = true
		}
		if ms.validFC.Test(oi) {
			fcValid = true
		}
		if ccValid && fcValid {
			break
		}
	}
	v.Invalid[ApproachNaive] = !naiveValid
	v.Invalid[ApproachCC] = !ccValid
	v.Invalid[ApproachFull] = !fcValid
	if !naiveValid || !ccValid || !fcValid {
		v.Class = ClassInvalid
	}
	return v
}

// ClassifyBatchSize is the batch the classification hot path is tuned for:
// the parallel consumers drain the ingest queue in batches of this many
// flows (consumeBatchSize) and hand each straight to ClassifyBatch.
const ClassifyBatchSize = 256

// ClassifyBatch runs the Figure 3 pipeline over a batch of flows, writing
// verdict i for flow i into out (which must be at least as long as flows).
// It is the amortized form of Classify — intended for batches of up to
// ClassifyBatchSize flows — with the per-flow overheads hoisted out of the
// loop: the ingress-port → member resolution is memoized across
// consecutive flows (flows arrive clustered by ingress), verdicts are
// written in place instead of returned, and covering chains are read
// zero-copy so no per-flow scratch exists at all. Verdicts are exactly
// Classify's, flow for flow (TestClassifyBatchMatchesClassify). Like
// Classify it is read-only on the pipeline and safe for concurrent use
// against one snapshot.
func (p *Pipeline) ClassifyBatch(flows []ipfix.Flow, out []Verdict) {
	if len(out) < len(flows) {
		panic("core: ClassifyBatch verdict buffer shorter than batch")
	}
	var (
		memoValid bool
		memoPort  uint32
		memoMS    *memberState
		memoOK    bool
	)
	for i := range flows {
		f := &flows[i]
		if !memoValid || f.Ingress != memoPort {
			memoMS, memoOK = p.member(f.Ingress)
			memoValid, memoPort = true, f.Ingress
		}
		out[i] = p.classify(f.SrcAddr, memoMS, memoOK)
	}
}
