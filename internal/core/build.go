// Pipeline compilation: the parallel cold-build path and the fingerprint-
// gated incremental rebuild used by the live runtime's epoch swaps. The
// classify hot path runs in ~60ns/flow, so at full-table scale the build —
// graph, relationship inference, two cone closures, naive index, the origin
// slab — is what keeps a runtime degraded after a routing flap. Compilation
// here is staged: topology layers (graph + closures) depend only on the AS
// path multiset; prefix layers (naive index, origin table, routed space)
// depend on the full announcement set; member tables derive from both. The
// RIB fingerprint (bgp.Fingerprint) tells which stages a fresh snapshot
// actually invalidates.
package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"spoofscope/internal/astopo"
	"spoofscope/internal/bgp"
	"spoofscope/internal/bogon"
	"spoofscope/internal/netx"
	"spoofscope/internal/obs"
)

// BuildReuse states how much of the previous epoch's pipeline a rebuild
// reused, from nothing to everything.
type BuildReuse int

const (
	// BuildCold compiled every layer from the RIB.
	BuildCold BuildReuse = iota
	// BuildReusedClosures reused the graph and both cone closures (the AS
	// path multiset was unchanged) and rebuilt only the prefix-dependent
	// layers: naive index, origin table, routed space, member naive bitsets.
	BuildReusedClosures
	// BuildReusedPipeline reused every layer (the announcement set was
	// unchanged); only the member tables were re-wrapped.
	BuildReusedPipeline
	numBuildReuse
)

func (r BuildReuse) String() string {
	switch r {
	case BuildCold:
		return "cold"
	case BuildReusedClosures:
		return "reused-closures"
	case BuildReusedPipeline:
		return "reused-pipeline"
	default:
		return "?"
	}
}

// BuildStats describes one pipeline compilation.
type BuildStats struct {
	Reuse    BuildReuse
	Workers  int // effective worker count (after the GOMAXPROCS clamp)
	Duration time.Duration
	ASes     int
	Prefixes int
	Members  int
}

// buildWorkers resolves Options.BuildWorkers: <= 0 means GOMAXPROCS, and
// explicit requests clamp to GOMAXPROCS — more build goroutines than
// schedulable threads only adds contention on the level barriers.
func buildWorkers(requested int) int {
	max := runtime.GOMAXPROCS(0)
	if requested <= 0 || requested > max {
		return max
	}
	return requested
}

// topologyKey digests every option that feeds the graph, the closures, or
// the per-member cone bitsets. Two compilations may share those layers only
// when their keys match (the RIB fingerprint gates the rest).
func (o Options) topologyKey() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		const prime = 1099511628211
		for s := 0; s < 64; s += 8 {
			h = (h ^ (v >> s & 0xff)) * prime
		}
	}
	if o.DisableOrgMerge {
		mix(1)
	}
	// The origin slab has the bogon prefixes merged in, so a bogon
	// override is part of the compiled index and must block reuse too. nil
	// (the reference set, the universal default) hashes as absent; an
	// explicit set never matches it, which at worst costs one cold build.
	if o.Bogons != nil {
		for _, bp := range o.Bogons.Prefixes() {
			mix(uint64(bp.Addr)<<8 | uint64(bp.Bits))
		}
	}
	mix(math.Float64bits(o.PeerDegreeRatio))
	mix(uint64(o.FullConeDepth))
	for _, org := range o.Orgs {
		mix(uint64(len(org)))
		for _, as := range org {
			mix(uint64(as))
		}
	}
	for _, l := range o.ExtraLinks {
		mix(uint64(l[0])<<32 | uint64(l[1]))
	}
	return h
}

// RebuildPipeline compiles a classifier from a RIB snapshot, reusing layers
// of prev (the previous epoch's pipeline, may be nil) that the snapshot's
// fingerprint proves unchanged:
//
//   - unchanged announcement set  → reuse everything; re-wrap member tables
//   - unchanged AS path multiset  → reuse graph + closures; rebuild the
//     prefix-dependent layers (naive index, origin table, routed space)
//   - otherwise                   → cold build
//
// Reuse is forbidden whenever the topology-shaping options differ (org
// groups, extra links, peer-degree ratio, full-cone depth, org-merge
// toggle): the fingerprint only covers the RIB, so an option change
// invalidates the shared layers regardless of the snapshot. §4.4 AllowSource
// whitelists are never carried over — they are manual per-epoch corrections,
// exactly as a cold rebuild would drop them.
func RebuildPipeline(prev *Pipeline, rib *bgp.RIB, members []MemberInfo, opts Options) (*Pipeline, BuildStats, error) {
	return compilePipeline(prev, rib, members, opts)
}

func compilePipeline(prev *Pipeline, rib *bgp.RIB, members []MemberInfo, opts Options) (*Pipeline, BuildStats, error) {
	t0 := time.Now()
	stats := BuildStats{Reuse: BuildCold, Workers: buildWorkers(opts.BuildWorkers)}
	if len(members) == 0 {
		return nil, stats, fmt.Errorf("core: no members")
	}
	anns := rib.Announcements()
	if len(anns) == 0 {
		return nil, stats, fmt.Errorf("core: RIB is empty")
	}
	bogons := opts.Bogons
	if bogons == nil {
		bogons = bogon.NewReferenceSet()
	}
	workers := stats.Workers

	fp := rib.Fingerprint()
	key := opts.topologyKey()
	if prev != nil && prev.optsKey == key && prev.fp.Paths == fp.Paths {
		if prev.fp.Anns == fp.Anns {
			stats.Reuse = BuildReusedPipeline
		} else {
			stats.Reuse = BuildReusedClosures
		}
	}

	p := &Pipeline{
		anns:    anns,
		fp:      fp,
		optsKey: key,
	}
	p.SetRouters(opts.Routers)

	switch stats.Reuse {
	case BuildReusedPipeline:
		p.graph, p.full, p.cc, p.naive = prev.graph, prev.full, prev.cc, prev.naive
		p.origins, p.originTab = prev.origins, prev.originTab
		p.bogonEntry = prev.bogonEntry
		p.routedSpace = prev.routedSpace

	case BuildReusedClosures:
		p.graph, p.full, p.cc = prev.graph, prev.full, prev.cc
		buildConcurrently(workers > 1,
			func() { p.naive = astopo.NewNaiveIndex(p.graph, anns) },
			func() { p.origins, p.originTab, p.bogonEntry = buildOriginIndex(rib, p.graph, bogons) },
			func() { p.routedSpace = rib.RoutedSpace() },
		)

	default:
		graph := astopo.NewGraph(anns)
		orgMerge := !opts.DisableOrgMerge && len(opts.Orgs) > 0
		if orgMerge {
			graph.AddOrgMesh(opts.Orgs)
		}
		for _, l := range opts.ExtraLinks {
			graph.AddLinkASN(l[0], l[1])
		}
		graph.InferRelationships(anns, opts.PeerDegreeRatio)
		p.graph = graph
		buildConcurrently(workers > 1,
			func() {
				if workers > 1 {
					var orgs [][]bgp.ASN
					if orgMerge {
						orgs = opts.Orgs
					}
					p.full, p.cc = graph.ConeClosures(orgs, workers)
					return
				}
				// Sequential baseline: the original single-threaded closure
				// path, byte-for-byte the behavior the parallel one is
				// property-tested against.
				p.full = graph.FullConeClosure()
				if orgMerge {
					p.cc = graph.CustomerConeWithOrgs(opts.Orgs)
				} else {
					p.cc = graph.CustomerConeClosure(false)
				}
			},
			func() { p.naive = astopo.NewNaiveIndex(graph, anns) },
			func() { p.origins, p.originTab, p.bogonEntry = buildOriginIndex(rib, graph, bogons) },
			func() { p.routedSpace = rib.RoutedSpace() },
		)
	}

	var donor *Pipeline
	if stats.Reuse != BuildCold {
		donor = prev
	}
	if err := p.compileMembers(members, opts, donor, stats.Reuse == BuildReusedPipeline, workers); err != nil {
		return nil, stats, err
	}

	stats.Duration = time.Since(t0)
	stats.ASes = p.graph.NumASes()
	stats.Prefixes = rib.NumPrefixes()
	stats.Members = len(members)
	return p, stats, nil
}

// buildConcurrently runs the stage functions in parallel when on, otherwise
// sequentially in order. Each stage writes a distinct pipeline field, so the
// WaitGroup is the only synchronization needed.
func buildConcurrently(on bool, stages ...func()) {
	if !on {
		for _, fn := range stages {
			fn()
		}
		return
	}
	var wg sync.WaitGroup
	for _, fn := range stages {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			fn()
		}(fn)
	}
	wg.Wait()
}

// bogonSlot is the sentinel value bogon prefixes carry in the merged flat
// origin slab; it is never a valid originTab index (the table would need
// 2^32 distinct origins).
const bogonSlot = ^uint32(0)

// buildOriginIndex compiles the origin slab: resolve each distinct origin
// ASN to an originTab slot once, then build the index straight from the
// sorted (prefix → slot) assignment.
//
// The bogon prefixes are appended under the bogonSlot sentinel — appended
// last, so a prefix that is both announced and bogon dedups to
// bogon, exactly the precedence Figure 3's bogon-first check gives it. The
// returned flags slice marks, per entry, whether the entry's ancestor chain
// carries the sentinel: the hot path's entire bogon test is one indexed
// load of that bit for the entry FindChain already resolved.
func buildOriginIndex(rib *bgp.RIB, graph *astopo.Graph, bogons *bogon.Set) (*netx.FlatLPM, []originRef, []bool) {
	prefixes, origins := rib.OriginAssignments()
	slotOf := make(map[bgp.ASN]uint32)
	vals := make([]uint32, len(prefixes))
	var tab []originRef
	for i, o := range origins {
		s, ok := slotOf[o]
		if !ok {
			s = uint32(len(tab))
			slotOf[o] = s
			tab = append(tab, originRef{asn: o, idx: int32(graph.Index(o))})
		}
		vals[i] = s
	}
	// Full-capacity slices force append to copy: OriginAssignments' result
	// must not be scribbled on.
	merged := append(prefixes[:len(prefixes):len(prefixes)], bogons.Prefixes()...)
	for range merged[len(prefixes):] {
		vals = append(vals, bogonSlot)
	}
	flat := netx.BuildFlatLPM(merged, vals)
	flags := make([]bool, flat.Len())
	for e := int32(0); e < int32(flat.Len()); e++ {
		chain, _ := flat.EntryChain(e)
		for _, v := range chain {
			if v == bogonSlot {
				flags[e] = true
				break
			}
		}
	}
	return flat, tab, flags
}

// naiveEntBits expresses AS asIdx's naive valid space as a bitset over the
// origin slab's entry indexes. Every naive prefix is an announced
// prefix and therefore an origin-table entry, so the per-flow naive test
// reduces to testing the entries on the chain FindChain already produced.
// Both derive from the same announcements; a prefix absent from the slab
// means they did not, and the build fails rather than classify from it.
func (p *Pipeline) naiveEntBits(mi MemberInfo, asIdx int) (*netx.Bitset, error) {
	b := netx.NewBitset(p.origins.Len())
	for _, pr := range p.naive.ValidPrefixes(asIdx) {
		e := p.origins.EntryOf(pr)
		if e < 0 {
			return nil, fmt.Errorf("core: member AS%d (port %d): naive prefix %s is not in the origin table", mi.ASN, mi.Port, pr)
		}
		b.Set(int(e))
	}
	return b, nil
}

// compileMembers builds the per-member validity tables. donor (non-nil only
// when this build shares prev's graph and closures) lets a member re-wrap
// its previous cone bitsets — and, when reuseNaive holds (unchanged
// announcement set), its naive entry bitset — instead of rematerializing
// them. The donor's §4.4 extra whitelists are never carried (fresh epoch,
// fresh corrections). Members are compiled by a worker pool when
// workers > 1; each slot is written by exactly one goroutine. The error, if
// any, is the first failing member's in input order.
func (p *Pipeline) compileMembers(members []MemberInfo, opts Options, donor *Pipeline, reuseNaive bool, workers int) error {
	p.byPort = make(map[uint32]*memberState, len(members))
	p.byASN = make(map[bgp.ASN]*memberState, len(members))
	maxPort := uint32(0)
	for _, mi := range members {
		if mi.Port > maxPort {
			maxPort = mi.Port
		}
	}
	if maxPort < densePortCap {
		p.byPortDense = make([]*memberState, maxPort+1)
	}

	states := make([]*memberState, len(members))
	errs := make([]error, len(members))
	build := func(i int) {
		mi := members[i]
		ms := &memberState{info: mi, asIdx: p.graph.Index(mi.ASN)}
		if ms.asIdx >= 0 {
			var from *memberState
			if donor != nil {
				if d := donor.byASN[mi.ASN]; d != nil && d.asIdx == ms.asIdx {
					from = d
				}
			}
			if from != nil && reuseNaive {
				// topologyKey mixes in the bogon list, so with the
				// announcement set unchanged too the reused origin slab's
				// entry indexing is identical, keeping the donor's entry
				// bitset valid.
				ms.naiveEnts = from.naiveEnts
			} else {
				ms.naiveEnts, errs[i] = p.naiveEntBits(mi, ms.asIdx)
			}
			if from != nil {
				ms.validCC, ms.validFC = from.validCC, from.validFC
			} else {
				ms.validCC = p.cc.ValidOriginSet(ms.asIdx)
				if opts.FullConeDepth > 0 {
					ms.validFC = p.graph.BoundedCone(ms.asIdx, opts.FullConeDepth)
				} else {
					ms.validFC = p.full.ValidOriginSet(ms.asIdx)
				}
			}
		}
		states[i] = ms
	}
	if workers > 1 && len(states) > 1 {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					build(i)
				}
			}()
		}
		for i := range states {
			next <- i
		}
		close(next)
		wg.Wait()
	} else {
		for i := range states {
			build(i)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Registration stays sequential and in input order so duplicate ports
	// or ASNs resolve exactly as the sequential build always has.
	for i, mi := range members {
		ms := states[i]
		p.byPort[mi.Port] = ms
		if int(mi.Port) < len(p.byPortDense) {
			p.byPortDense[mi.Port] = ms
		}
		p.byASN[mi.ASN] = ms
	}
	return nil
}

// MetricBuildDuration is the pipeline-compilation histogram's name.
const MetricBuildDuration = "spoofscope_build_duration_seconds"

// RebuildAndSwap compiles the next epoch's pipeline from a fresh RIB
// snapshot — off the hot path, reusing the current epoch's layers when the
// snapshot's fingerprint allows — then promotes it and records the build
// (journal event, duration histogram + gauge, per-mode counter). This is
// the routing feed's per-snapshot entry point.
func (rt *Runtime) RebuildAndSwap(rib *bgp.RIB, members []MemberInfo, opts Options) (Epoch, BuildStats, error) {
	var prev *Pipeline
	if st := rt.state.Load(); st != nil {
		prev = st.pipeline
	}
	p, stats, err := RebuildPipeline(prev, rib, members, opts)
	if err != nil {
		return 0, stats, err
	}
	e := rt.Swap(p)
	rt.RecordBuild(stats)
	return e, stats, nil
}

// RecordBuild feeds one compilation's stats into the runtime's telemetry:
// the build-duration histogram, the last-build gauge, the per-mode build
// counters, and a journal event. RebuildAndSwap calls it automatically;
// callers that compile their initial pipeline directly (cmd/classify)
// call it once by hand so /metrics can explain a slow start too.
func (rt *Runtime) RecordBuild(stats BuildStats) {
	rt.lastBuildNs.Store(stats.Duration.Nanoseconds())
	if stats.Reuse >= 0 && stats.Reuse < numBuildReuse {
		rt.builds[stats.Reuse].Add(1)
	}
	if rt.buildHist != nil {
		rt.buildHist.Observe(stats.Duration.Seconds())
	}
	kind := obs.EventRebuild
	if stats.Reuse != BuildCold {
		kind = obs.EventRebuildReused
	}
	rt.journal.Recordf(kind, "%s build in %s (%d workers, %d ASes, %d prefixes, %d members)",
		stats.Reuse, stats.Duration.Round(time.Microsecond), stats.Workers,
		stats.ASes, stats.Prefixes, stats.Members)
}
