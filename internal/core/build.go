// Pipeline compilation: the parallel cold-build path and the fingerprint-
// gated incremental rebuild used by the live runtime's epoch swaps. The
// classify hot path runs in ~60ns/flow, so at full-table scale the build —
// graph, relationship inference, the origin slab, the members' naive rows
// and cone walks — is what keeps a runtime degraded after a routing flap.
// Compilation here is staged: topology layers (the graph and the members'
// cone rows) depend only on the AS path multiset; the origin stage (the
// origin slab) depends on the full announcement set; the members'
// naive rows derive from both, in one walk of the table that sets each
// member's bit for each prefix it is on a path of. No all-AS naive index is
// built: only members are asked the Naive question. The RIB fingerprint
// (bgp.Fingerprint), which the RIB keeps as it folds announcements in, tells
// which stages a fresh snapshot actually invalidates.
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
	// BuildReusedClosures reused the graph and the members' cone rows (the
	// AS path multiset was unchanged; a member new to this build walks its
	// cones) and rebuilt only the prefix-dependent layers: the origin slab
	// and the members' naive rows. Its string is kept as it was: the build
	// counters and the repository benchmark use it.
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
	Workers  int // compilation workers: GOMAXPROCS at build time
	Duration time.Duration
	ASes     int
	Prefixes int
	Members  int
}

// topologyKey digests every option that feeds the graph or the per-member
// cone bitsets. Two compilations may share those layers only when their keys
// match (the RIB fingerprint gates the rest).
func (o Options) topologyKey() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		const prime = 1099511628211
		for s := 0; s < 64; s += 8 {
			h = (h ^ (v >> s & 0xff)) * prime
		}
	}
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
//   - unchanged AS path multiset  → reuse graph + member cone rows; rebuild
//     the origin stage (the origin slab) and the members' naive rows, in
//     one walk of the table
//   - otherwise                   → cold build
//
// The stages run in order: the origin stage needs the graph's index, and the
// naive rows the origin slab's entries. With GOMAXPROCS > 1 the table walk
// runs beside the members' cone walks. The fingerprint is a field of a RIB
// read since its last add; otherwise the read here folds the RIB's tail,
// hashing the announcements the fold adds.
//
// Reuse is forbidden whenever the topology-shaping options differ (org
// groups, extra links, full-cone depth): the fingerprint only covers the
// RIB, so an option change invalidates the shared layers regardless of the
// snapshot. §4.4 AllowSource whitelists are never carried over — they are
// manual per-epoch corrections, exactly as a cold rebuild would drop them.
func RebuildPipeline(prev *Pipeline, rib *bgp.RIB, members []MemberInfo, opts Options) (*Pipeline, BuildStats, error) {
	t0 := time.Now()
	// One compilation worker per schedulable thread: more only adds
	// contention, and GOMAXPROCS=1 runs every stage on one goroutine.
	stats := BuildStats{Reuse: BuildCold, Workers: runtime.GOMAXPROCS(0)}
	if len(members) == 0 {
		return nil, stats, fmt.Errorf("core: no members")
	}
	anns := rib.Announcements()
	if len(anns) == 0 {
		return nil, stats, fmt.Errorf("core: RIB is empty")
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
		routers: opts.Routers,
		anns:    anns,
		fp:      fp,
		optsKey: key,
	}
	p.hops, p.runEnds = rib.Hops()

	// prefixes is the origin stage's prefix list, one per run of anns; a
	// reused pipeline has none, and compileMembers derives it from anns
	// only for a member new to the build.
	var prefixes []netx.Prefix
	switch stats.Reuse {
	case BuildReusedPipeline:
		p.graph = prev.graph
		p.origins, p.originTab = prev.origins, prev.originTab
		p.bogonEntry, p.prefixes = prev.bogonEntry, prev.prefixes

	case BuildReusedClosures:
		p.graph = prev.graph
		prefixes = p.buildOriginIndex(rib)

	default:
		graph, err := astopo.NewGraph(anns, opts.Orgs, opts.ExtraLinks)
		if err != nil {
			return nil, stats, fmt.Errorf("core: %w", err)
		}
		p.graph = graph
		prefixes = p.buildOriginIndex(rib)
	}

	var donor *Pipeline
	if stats.Reuse != BuildCold {
		donor = prev
	}
	if err := p.compileMembers(members, opts, donor, prefixes, workers); err != nil {
		return nil, stats, err
	}

	stats.Duration = time.Since(t0)
	stats.ASes = p.graph.NumASes()
	stats.Prefixes = p.prefixes
	stats.Members = len(members)
	return p, stats, nil
}

// bogonSlot is the sentinel value bogon prefixes carry in the merged flat
// origin slab; it is never a valid originTab index (the table would need
// 2^32 distinct origins).
const bogonSlot = ^uint32(0)

// bogonPrefixes is the reference bogon list the origin slab merges in,
// compiled once rather than on every rebuild.
var bogonPrefixes = bogon.NewReferenceSet().Prefixes()

// buildOriginIndex compiles the origin slab into p.origins, p.originTab and
// p.bogonEntry: resolve each distinct origin ASN to an originTab slot once,
// through a table indexed by the graph's AS index, then build the index
// straight from the sorted (prefix → slot) assignment, which has one row per
// routed prefix, so it also counts them (p.prefixes). It returns the routed prefixes, in the
// order of the RIB's prefix runs. p.graph must be set.
//
// The bogon prefixes are appended under the bogonSlot sentinel — appended
// last, so a prefix that is both announced and bogon dedups to
// bogon, exactly the precedence Figure 3's bogon-first check gives it. The
// returned flags slice marks, per entry, whether the entry's ancestor chain
// carries the sentinel: the hot path's entire bogon test is one indexed
// load of that bit for the entry FindChain already resolved.
func (p *Pipeline) buildOriginIndex(rib *bgp.RIB) []netx.Prefix {
	prefixes, origins := rib.OriginAssignments()
	p.prefixes = len(prefixes)
	nAS := p.graph.NumASes()
	slotOf := make([]uint32, nAS) // per graph AS: 1 + its originTab slot, 0 if none yet
	tab := make([]originRef, 0, min(nAS, len(prefixes)))
	vals := make([]uint32, len(prefixes), len(prefixes)+len(bogonPrefixes))
	for i, o := range origins {
		// An origin ends a path of the table, and the graph indexes every
		// path AS: it was built from these paths or from the same multiset.
		u := p.graph.Index(o)
		if slotOf[u] == 0 {
			tab = append(tab, originRef{asn: o, idx: int32(u)})
			slotOf[u] = uint32(len(tab))
		}
		vals[i] = slotOf[u] - 1
	}
	// Full-capacity slices force append to copy: the prefix list is
	// returned, and must not be scribbled on.
	merged := append(prefixes[:len(prefixes):len(prefixes)], bogonPrefixes...)
	for range bogonPrefixes {
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
	p.origins, p.originTab, p.bogonEntry = flat, tab, flags
	return prefixes
}

// fillNaiveRows sets every member's naive valid space, as bits over the
// origin slab's entry indexes, in one walk of the table: in the Naive
// approach an AS is valid for a prefix when it is on one of the prefix's
// AS paths, and every such prefix is an announced prefix, so an
// origin-table entry. The RIB lays the table's paths end to end (p.hops),
// each prefix run's hops one stretch of it ending at p.runEnds[r], and
// prefixes[r] is run r's prefix; FlatLPM.EntriesOf resolves each run's
// entry once, and the run's hops are then one flat loop: each hop resolves
// through the graph's dictionary (which indexes every path AS) to rowOf,
// which holds the naive row of each member AS to fill and 0 for every
// other AS, and sets that row's bit. Row 0 is a sink that no member reads,
// so a hop costs two loads and one bit set, with no branch on membership.
//
// Both the runs and the slab derive from the same announcements; a run whose
// prefix the slab does not hold means they did not. The first such prefix
// with a member on its paths is returned with that member's row, for the
// build to fail on rather than classify from; failRow is 0 when there is
// none.
func (p *Pipeline) fillNaiveRows(rows []netx.Bitset, rowOf []int32, prefixes []netx.Prefix) (failRow int32, missing netx.Prefix) {
	if len(rows) == 0 {
		return 0, missing
	}
	hops, ends, g := p.hops, p.runEnds, p.graph
	run, from := 0, 0 // the next run, and where its hops start
	fill := func(e int32) {
		to := ends[run]
		for _, as := range hops[from:to] {
			rows[rowOf[g.Index(as)]].Set(int(e))
		}
		run, from = run+1, to
	}
	for rest := prefixes; len(rest) > 0; {
		i := p.origins.EntriesOf(rest, fill)
		if i < 0 {
			break
		}
		to := ends[run]
		for _, as := range hops[from:to] {
			if r := rowOf[g.Index(as)]; r != 0 && failRow == 0 {
				failRow, missing = r, rest[i]
			}
		}
		run, from = run+1, to
		rest = rest[i+1:]
	}
	return failRow, missing
}

// runPrefixes lists the prefix of each run of anns, in order: the origin
// stage's prefix list, for a build that reused the origin stage.
func runPrefixes(anns []bgp.Announcement, n int) []netx.Prefix {
	out := make([]netx.Prefix, 0, n)
	for j, a := range anns {
		if j == 0 || a.Prefix != anns[j-1].Prefix {
			out = append(out, a.Prefix)
		}
	}
	return out
}

// compileMembers builds the per-member validity tables. A member's naive
// row comes from fillNaiveRows' one walk of the table, shared by the
// members of one AS. A member's cone bitsets are two breadth-first walks
// from it: the Full Cone down the graph, cut at FullConeDepth hops when that
// is set, and the Customer Cone down the graph's customer adjacency, built
// once and only when some member walks. donor (non-nil only when this build
// shares prev's graph) lets a member re-wrap its previous cone bitsets —
// and, when prefixes is nil, its naive entry bitset — instead of
// rematerializing them. prefixes is the origin stage's prefix list, nil
// when the build reused the origin stage (unchanged announcement set), and
// with it the entry indexing the donor's naive rows are over. The donor's
// §4.4 extra whitelists are never carried (fresh epoch, fresh corrections).
//
// The member states are one slice, and every bitset a member fills is a row
// of one of two slabs, the naive rows and the cone rows, sized for the
// members that fill them (the naive slab, when there is one, also holds the
// fill's sink row); so the tables cost the same few allocations however
// many members there are. When workers > 1 the table walk runs
// beside a worker pool that walks the cones, each worker on one queue; each
// row is written by exactly one goroutine. The error, if any, names the
// first prefix, in table order, that the origin slab lacks and a member is
// on a path of, and the first such member in input order.
func (p *Pipeline) compileMembers(members []MemberInfo, opts Options, donor *Pipeline, prefixes []netx.Prefix, workers int) error {
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

	fcDepth := opts.FullConeDepth
	if fcDepth <= 0 {
		fcDepth = math.MaxInt
	}
	// What each member still has to compute, once the donor has lent it
	// what it can.
	const (
		fillNaive = 1 << iota
		walkCones
	)
	states := make([]memberState, len(members))
	todo := make([]uint8, len(members))
	nNaive, nWalk := 0, 0
	var rowOf []int32 // per graph AS: its naive row, 0 (the sink) if it fills none
	for i, mi := range members {
		ms := &states[i]
		ms.info, ms.asIdx = mi, p.graph.Index(mi.ASN)
		if ms.asIdx < 0 {
			continue
		}
		if donor != nil {
			if d := donor.byASN[mi.ASN]; d != nil && d.asIdx == ms.asIdx {
				ms.validCC, ms.validFC = d.validCC, d.validFC
				if prefixes == nil {
					// With the announcement set unchanged too, the
					// reused origin slab's entry indexing is identical,
					// keeping the donor's entry bitset valid.
					ms.naiveEnts = d.naiveEnts
				}
			}
		}
		if ms.naiveEnts == nil {
			todo[i] |= fillNaive
			if rowOf == nil {
				rowOf = make([]int32, p.graph.NumASes())
			}
			if rowOf[ms.asIdx] == 0 {
				nNaive++
				rowOf[ms.asIdx] = int32(nNaive)
			}
		}
		if ms.validCC == nil {
			todo[i] |= walkCones
			nWalk++
		}
	}
	var naiveRows []netx.Bitset
	if nNaive > 0 {
		// Row 0 is the sink the other ASes' hops set.
		naiveRows = netx.NewBitsets(1+nNaive, p.origins.Len())
	}
	coneRows := netx.NewBitsets(2*nWalk, p.graph.NumASes())
	var ccAdj astopo.Adjacency
	if nWalk > 0 {
		ccAdj = p.graph.CustomerAdjacency(opts.Orgs)
	}
	for i := range states {
		ms := &states[i]
		if todo[i]&fillNaive != 0 {
			ms.naiveEnts = &naiveRows[rowOf[ms.asIdx]]
		}
		if todo[i]&walkCones != 0 {
			ms.validCC, ms.validFC, coneRows = &coneRows[0], &coneRows[1], coneRows[2:]
		}
	}

	if nNaive > 0 && prefixes == nil {
		// A member new to a reused pipeline.
		prefixes = runPrefixes(p.anns, p.prefixes)
	}
	walk := func(i int, queue []int32) []int32 {
		ms := &states[i]
		if queue == nil {
			queue = make([]int32, 0, p.graph.NumASes())
		}
		queue = ccAdj.Cone(ms.validCC, queue, ms.asIdx, math.MaxInt)
		return p.graph.BoundedCone(ms.validFC, queue, ms.asIdx, fcDepth)
	}
	var failRow int32
	var missing netx.Prefix
	if workers > 1 && nWalk > 0 {
		// The cone workers are fed from a goroutine of their own, so
		// that this one walks the table beside them.
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var queue []int32
				for i := range next {
					queue = walk(i, queue)
				}
			}()
		}
		go func() {
			for i := range states {
				if todo[i]&walkCones != 0 {
					next <- i
				}
			}
			close(next)
		}()
		failRow, missing = p.fillNaiveRows(naiveRows, rowOf, prefixes)
		wg.Wait()
	} else {
		failRow, missing = p.fillNaiveRows(naiveRows, rowOf, prefixes)
		var queue []int32
		for i := range states {
			if todo[i]&walkCones != 0 {
				queue = walk(i, queue)
			}
		}
	}
	for i := 0; failRow != 0 && i < len(states); i++ {
		if ms := &states[i]; todo[i]&fillNaive != 0 && rowOf[ms.asIdx] == failRow {
			return fmt.Errorf("core: member AS%d (port %d): naive prefix %s is not in the origin table", ms.info.ASN, ms.info.Port, missing)
		}
	}

	// Registration stays sequential and in input order so duplicate ports
	// or ASNs resolve exactly as the sequential build always has.
	for i, mi := range members {
		ms := &states[i]
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
