package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"spoofscope/internal/astopo"
	"spoofscope/internal/bgp"
	"spoofscope/internal/flowgen"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
	"spoofscope/internal/obs"
	"spoofscope/internal/scenario"
)

// buildRebuildFixture digests a small scenario into the raw compilation
// inputs (RIB, members, options) plus labeled traffic to classify.
func buildRebuildFixture(t *testing.T) (*bgp.RIB, []MemberInfo, Options, []ipfix.Flow) {
	t.Helper()
	s, err := scenario.Build(scenario.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var mrt bytes.Buffer
	if err := s.WriteMRT(&mrt); err != nil {
		t.Fatal(err)
	}
	rib := bgp.NewRIB()
	if err := rib.LoadMRT(&mrt); err != nil {
		t.Fatal(err)
	}
	var members []MemberInfo
	for _, m := range s.Members {
		members = append(members, MemberInfo{ASN: m.ASN, Port: m.Port})
	}
	opts := Options{Orgs: s.Orgs().MultiASGroups()}
	fcfg := flowgen.DefaultConfig()
	fcfg.RegularPerBucket = 100
	var flows []ipfix.Flow
	flowgen.New(s, fcfg).Generate(func(f ipfix.Flow, _ flowgen.Label) {
		flows = append(flows, f)
	})
	return rib, members, opts, flows
}

// requireSameVerdicts asserts two pipelines classify every flow identically.
func requireSameVerdicts(t *testing.T, label string, a, b *Pipeline, flows []ipfix.Flow) {
	t.Helper()
	for i, f := range flows {
		if va, vb := a.Classify(f), b.Classify(f); va != vb {
			t.Fatalf("%s: flow %d verdict %+v vs %+v", label, i, va, vb)
		}
	}
}

// rebuiltRIB re-digests rib's announcements through remap (identity when
// nil), preserving digest-relevant structure except what remap changes.
func rebuiltRIB(rib *bgp.RIB, remap func(i int, a bgp.Announcement) bgp.Announcement) *bgp.RIB {
	out := bgp.NewRIB()
	for i, a := range rib.Announcements() {
		if remap != nil {
			a = remap(i, a)
		}
		out.AddAnnouncement(a.Prefix, a.Path)
	}
	return out
}

// TestRebuildReuseTiers walks the three reuse tiers and proves each is
// behavior-identical to a cold build of the same snapshot: identical
// verdicts per flow and byte-identical canonical checkpoints, with the same
// member list and, in both reuse tiers, with one member added and one moved.
func TestRebuildReuseTiers(t *testing.T) {
	rib, members, opts, flows := buildRebuildFixture(t)
	dir := t.TempDir()

	cold, st, err := RebuildPipeline(nil, rib, members, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reuse != BuildCold {
		t.Fatalf("initial build reuse = %s, want cold", st.Reuse)
	}
	refBytes := runParallel(t, cold, flows, 0, filepath.Join(dir, "ref.ckpt"))

	// Unchanged snapshot: full pipeline reuse, same behavior.
	reused, st2, err := RebuildPipeline(cold, rib, members, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Reuse != BuildReusedPipeline {
		t.Fatalf("unchanged-snapshot reuse = %s, want reused-pipeline", st2.Reuse)
	}
	requireSameVerdicts(t, "reused-pipeline", cold, reused, flows)
	if got := runParallel(t, reused, flows, 0, filepath.Join(dir, "reused.ckpt")); !bytes.Equal(refBytes, got) {
		t.Fatal("reused-pipeline checkpoint differs from cold build's")
	}

	// Same AS-path multiset, different prefix set: topology layers reuse,
	// prefix-dependent layers rebuild. Must equal a cold build of the new
	// snapshot exactly.
	moved := netx.MustParsePrefix("223.255.250.0/24")
	remap := func(i int, a bgp.Announcement) bgp.Announcement {
		if i == 0 {
			a.Prefix = moved
		}
		return a
	}
	rib2 := rebuiltRIB(rib, remap)
	cold2, _, err := RebuildPipeline(nil, rib2, members, opts)
	if err != nil {
		t.Fatal(err)
	}
	inc2, stInc, err := RebuildPipeline(cold, rib2, members, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stInc.Reuse != BuildReusedClosures {
		t.Fatalf("prefix-only change reuse = %s, want reused-closures", stInc.Reuse)
	}
	requireSameVerdicts(t, "reused-closures", cold2, inc2, flows)
	a := runParallel(t, cold2, flows, 0, filepath.Join(dir, "cold2.ckpt"))
	b := runParallel(t, inc2, flows, 0, filepath.Join(dir, "inc2.ckpt"))
	if !bytes.Equal(a, b) {
		t.Fatal("reused-closures checkpoint differs from cold build's")
	}

	// Member changes under both reuse tiers: one AS joins (it has no donor
	// row, so its cones are walked on the shared graph) and one member moves
	// port (its rows are re-wrapped under the new port). Each rebuild must
	// equal a cold build of the same snapshot and member list.
	members2, flows2 := memberChange(t, rib, members, flows)
	for _, tc := range []struct {
		name string
		rib  *bgp.RIB
		want BuildReuse
	}{
		{"members reused-pipeline", rib, BuildReusedPipeline},
		{"members reused-closures", rib2, BuildReusedClosures},
	} {
		ref, _, err := RebuildPipeline(nil, tc.rib, members2, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := RebuildPipeline(cold, tc.rib, members2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.Reuse != tc.want {
			t.Fatalf("%s: reuse = %s, want %s", tc.name, st.Reuse, tc.want)
		}
		requireSameVerdicts(t, tc.name, ref, got, flows2)
		a := runParallel(t, ref, flows2, 0, filepath.Join(dir, "mref.ckpt"))
		b := runParallel(t, got, flows2, 0, filepath.Join(dir, "mgot.ckpt"))
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: checkpoint differs from cold build's", tc.name)
		}
	}

	// A new AS path changes the topology: no reuse allowed.
	extra := rebuiltRIB(rib, nil)
	extra.AddAnnouncement(netx.MustParsePrefix("223.255.249.0/24"),
		[]bgp.ASN{64501, 64502, 64503})
	_, stCold, err := RebuildPipeline(cold, extra, members, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stCold.Reuse != BuildCold {
		t.Fatalf("new-path rebuild reuse = %s, want cold", stCold.Reuse)
	}

	// Topology-shaping option changes also forbid reuse.
	ablated := opts
	ablated.Orgs = nil
	_, stOpt, err := RebuildPipeline(cold, rib, members, ablated)
	if err != nil {
		t.Fatal(err)
	}
	if stOpt.Reuse != BuildCold {
		t.Fatalf("option-change rebuild reuse = %s, want cold", stOpt.Reuse)
	}
}

// memberChange returns members with one AS added — the non-member with the
// most neighbours, on a fresh port — and the first member moved to another
// fresh port, plus flows re-aimed to match: the moved member's flows arrive
// on its new port, and every fifth flow is repeated on the added member's.
func memberChange(t *testing.T, rib *bgp.RIB, members []MemberInfo, flows []ipfix.Flow) ([]MemberInfo, []ipfix.Flow) {
	t.Helper()
	isMember := make(map[bgp.ASN]bool, len(members))
	var maxPort uint32
	for _, m := range members {
		isMember[m.ASN] = true
		maxPort = max(maxPort, m.Port)
	}
	// An AS's degree: the distinct ASes it neighbours on some path.
	neighbours := map[bgp.ASN]map[bgp.ASN]bool{}
	link := func(u, v bgp.ASN) {
		if neighbours[u] == nil {
			neighbours[u] = map[bgp.ASN]bool{}
		}
		neighbours[u][v] = true
	}
	for _, a := range rib.Announcements() {
		for i := 1; i < len(a.Path); i++ {
			if u, v := a.Path[i-1], a.Path[i]; u != v {
				link(u, v)
				link(v, u)
			}
		}
	}
	var added bgp.ASN
	for as, ns := range neighbours {
		if !isMember[as] && (added == 0 || len(ns) > len(neighbours[added]) || len(ns) == len(neighbours[added]) && as < added) {
			added = as
		}
	}
	if added == 0 {
		t.Fatal("every AS is a member")
	}
	oldPort, movedPort, addedPort := members[0].Port, maxPort+1, maxPort+2
	out := append([]MemberInfo(nil), members...)
	out[0].Port = movedPort
	out = append(out, MemberInfo{ASN: added, Port: addedPort})

	var moved int
	var outFlows []ipfix.Flow
	for i, f := range flows {
		if f.Ingress == oldPort {
			f.Ingress = movedPort
			moved++
		}
		outFlows = append(outFlows, f)
		if i%5 == 0 {
			f.Ingress = addedPort
			outFlows = append(outFlows, f)
		}
	}
	if moved == 0 {
		t.Fatal("no flow enters on the moved member's port")
	}
	return out, outFlows
}

// TestBuildWorkersEquivalence proves the parallel compilation path emits a
// pipeline indistinguishable from the one-worker build's: same verdicts, same
// checkpoint bytes. The build runs one worker per GOMAXPROCS, so the sweep
// sets GOMAXPROCS itself — past the host's CPU count too, so the worker pool
// truly runs multi-goroutine even on a 1-CPU host.
func TestBuildWorkersEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rib, members, opts, flows := buildRebuildFixture(t)
	dir := t.TempDir()

	seq, stSeq, err := RebuildPipeline(nil, rib, members, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stSeq.Workers != 1 {
		t.Fatalf("GOMAXPROCS=1 build ran %d workers", stSeq.Workers)
	}
	ref := runParallel(t, seq, flows, 0, filepath.Join(dir, "w1.ckpt"))

	for _, n := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(n)
		par, stPar, err := RebuildPipeline(nil, rib, members, opts)
		if err != nil {
			t.Fatal(err)
		}
		if stPar.Workers != n {
			t.Fatalf("GOMAXPROCS=%d build ran %d workers", n, stPar.Workers)
		}
		requireSameVerdicts(t, "parallel-build", seq, par, flows)
		got := runParallel(t, par, flows, 0, filepath.Join(dir, "wN.ckpt"))
		if !bytes.Equal(ref, got) {
			t.Fatalf("GOMAXPROCS=%d checkpoint differs from sequential build's", n)
		}
	}
}

// TestBuildStatsPrefixes: every reuse tier reports the RIB's routed prefix
// count, which a build takes from its origin assignments and a reused
// pipeline carries, and the journal line of each build says the same.
func TestBuildStatsPrefixes(t *testing.T) {
	rib, members, opts, _ := buildRebuildFixture(t)
	delta := rebuiltRIB(rib, func(i int, a bgp.Announcement) bgp.Announcement {
		if i == 0 {
			a.Prefix = netx.MustParsePrefix("223.255.250.0/24")
		}
		return a
	})
	tel := obs.NewTelemetry()
	rt, err := NewRuntime(RuntimeConfig{Queue: unboundedQueue(16), Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, step := range []struct {
		rib  *bgp.RIB
		want BuildReuse
	}{{rib, BuildCold}, {rib, BuildReusedPipeline}, {delta, BuildReusedClosures}} {
		_, st, err := rt.RebuildAndSwap(step.rib, members, opts)
		if err != nil {
			t.Fatal(err)
		}
		n := step.rib.NumPrefixes()
		if st.Reuse != step.want || st.Prefixes != n {
			t.Fatalf("%s build reports %d prefixes, want a %s build of %d", st.Reuse, st.Prefixes, step.want, n)
		}
		events := tel.Journal.Events()
		if msg := events[len(events)-1].Msg; !strings.Contains(msg, fmt.Sprintf(" %d prefixes,", n)) {
			t.Fatalf("%s build's journal line %q does not say %d prefixes", st.Reuse, msg, n)
		}
	}
}

// TestRoutedSpaceOnFirstUse: no build computes the routed space; every reuse
// tier's pipeline derives it from its own table on the first RoutedSpace
// call, which several goroutines make at once, and it is the union of the
// RIB's routed prefixes — after an announcement-only delta too, where a
// space carried over from the previous epoch would be stale.
func TestRoutedSpaceOnFirstUse(t *testing.T) {
	rib, members, opts, _ := buildRebuildFixture(t)
	delta := rebuiltRIB(rib, func(i int, a bgp.Announcement) bgp.Announcement {
		if i == 0 {
			a.Prefix = netx.MustParsePrefix("223.255.250.0/24")
		}
		return a
	})
	var prev *Pipeline
	for _, step := range []struct {
		rib  *bgp.RIB
		want BuildReuse
	}{{rib, BuildCold}, {rib, BuildReusedPipeline}, {delta, BuildReusedClosures}} {
		p, st, err := RebuildPipeline(prev, step.rib, members, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.Reuse != step.want {
			t.Fatalf("build reused %s, want %s", st.Reuse, step.want)
		}
		prefixes, _ := step.rib.OriginAssignments()
		want := netx.IntervalSetOfPrefixes(prefixes...).Intervals()
		got := make([]netx.IntervalSet, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = p.RoutedSpace()
			}()
		}
		wg.Wait()
		for _, g := range got {
			if !slices.Equal(g.Intervals(), want) {
				t.Fatalf("%s build's routed space has %d intervals, want the %d of its RIB's prefixes", st.Reuse, len(g.Intervals()), len(want))
			}
		}
		prev = p
	}
}

// rebuildAllocRuns is how many rebuilds an allocation count averages over.
// AllocsPerRun counts every malloc in the process and rounds the mean down.
// About one small-scenario rebuild in thirty measured four mallocs more,
// made outside the build while it ran (a memory profile of 3,000 rebuilds
// gives every call site of the build the same count each time). Over 3
// runs one such rebuild reads as the build allocating once more; over 20
// it rounds away.
const rebuildAllocRuns = 20

// TestReusedClosuresRebuildAllocs holds an announcement-only rebuild (one
// prefix renumbered, every path kept) to an allocation ceiling: the prefix
// layers it recompiles allocate per table, not per AS or per hop, and the
// member tables per build, not per member. The count is taken sequentially
// (GOMAXPROCS=1), where it does not depend on scheduling. The small
// scenario's rebuild (249 ASes, 387 prefixes, 60 members) measured 37
// allocations, as many as at paper scale; the ceiling leaves 13 for map
// growth to vary. Rebuilding with four times the members, each copy on its
// own ports, may cost only what the member maps sized by that hint cost
// more.
func TestReusedClosuresRebuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const ceiling = 50
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rib, members, opts, _ := buildRebuildFixture(t)
	prev, _, err := RebuildPipeline(nil, rib, members, opts)
	if err != nil {
		t.Fatal(err)
	}
	moved := netx.MustParsePrefix("223.255.250.0/24")
	delta := rebuiltRIB(rib, func(i int, a bgp.Announcement) bgp.Announcement {
		if i == 0 {
			a.Prefix = moved
		}
		return a
	})
	maxPort := uint32(0)
	for _, mi := range members {
		maxPort = max(maxPort, mi.Port)
	}
	var members4 []MemberInfo
	for c := range uint32(4) {
		for _, mi := range members {
			members4 = append(members4, MemberInfo{ASN: mi.ASN, Port: mi.Port + c*(maxPort+1)})
		}
	}
	var counts []float64
	for _, ms := range [][]MemberInfo{members, members4} {
		var stats BuildStats
		allocs := testing.AllocsPerRun(rebuildAllocRuns, func() {
			if _, stats, err = RebuildPipeline(prev, delta, ms, opts); err != nil {
				t.Fatal(err)
			}
		})
		if stats.Reuse != BuildReusedClosures {
			t.Fatalf("announcement-only delta rebuilt as %s, want reused-closures", stats.Reuse)
		}
		t.Logf("reused-closures rebuild of %d ASes, %d prefixes, %d members: %.0f allocations", stats.ASes, stats.Prefixes, stats.Members, allocs)
		counts = append(counts, allocs)
	}
	if counts[0] > ceiling {
		t.Fatalf("reused-closures rebuild allocates %.0f times, ceiling %d", counts[0], ceiling)
	}
	hinted := func(n int) float64 {
		return testing.AllocsPerRun(rebuildAllocRuns, func() {
			_ = make(map[uint32]*memberState, n)
			_ = make(map[bgp.ASN]*memberState, n)
		})
	}
	if slack := hinted(len(members4)) - hinted(len(members)); counts[1]-counts[0] > slack {
		t.Fatalf("reused-closures rebuild allocates %v times with %d and %d members; the member maps account for %.0f more, not %.0f",
			counts, len(members), len(members4), slack, counts[1]-counts[0])
	}
}

// TestReusedPipelineRebuildAllocs holds a rebuild of an unchanged snapshot
// to an allocation ceiling: it reuses every layer and re-wraps the member
// tables, so it allocates the member states and maps and nothing per table.
// Counted sequentially, as TestReusedClosuresRebuildAllocs counts; the small
// scenario's rebuild measured 13 allocations, as many as at paper scale,
// and the ceiling leaves 7 for map growth to vary.
func TestReusedPipelineRebuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const ceiling = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rib, members, opts, _ := buildRebuildFixture(t)
	prev, _, err := RebuildPipeline(nil, rib, members, opts)
	if err != nil {
		t.Fatal(err)
	}
	var stats BuildStats
	allocs := testing.AllocsPerRun(rebuildAllocRuns, func() {
		if _, stats, err = RebuildPipeline(prev, rib, members, opts); err != nil {
			t.Fatal(err)
		}
	})
	if stats.Reuse != BuildReusedPipeline {
		t.Fatalf("unchanged snapshot rebuilt as %s, want reused-pipeline", stats.Reuse)
	}
	t.Logf("reused-pipeline rebuild of %d ASes, %d prefixes, %d members: %.0f allocations", stats.ASes, stats.Prefixes, stats.Members, allocs)
	if allocs > ceiling {
		t.Fatalf("reused-pipeline rebuild allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}

// TestColdBuildAllocLinear holds a cold build on a ≈20K-AS synthetic table
// (no scenario: the table is synthesized directly, one vantage per origin so
// the paths stay few next to the ASes) to an allocation budget linear in the
// table and in ASes × members: 128 bytes per path hop and 1 KiB per AS for
// the graph and the prefix layers, and one byte per AS per member for the
// two cone rows (a bit each) and their walks' queues. Two all-pairs closures
// would need 2·ASes²/8 bytes, 100 MB here, above the whole budget; the build
// measured 41 MB.
func TestColdBuildAllocLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cfg := scenario.FullTableConfig()
	cfg.NumTransit, cfg.NumStub, cfg.NumMembers, cfg.VantagesPerOrigin = 1200, 18800, 400, 1
	st, err := scenario.SynthesizeTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rib := bgp.NewRIB()
	for _, a := range st.Anns {
		rib.AddAnnouncement(a.Prefix, a.Path)
	}
	var members []MemberInfo
	for i, as := range st.MemberASNs {
		members = append(members, MemberInfo{ASN: as, Port: uint32(i + 1)})
	}
	hops := 0
	for _, a := range rib.Announcements() {
		hops += len(a.Path)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, stats, err := RebuildPipeline(nil, rib, members, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	budget := uint64(128*hops + 1024*stats.ASes + stats.ASes*stats.Members)
	t.Logf("cold build of %d ASes, %d members, %d hops: %.1f MB allocated, budget %.1f MB",
		stats.ASes, stats.Members, hops, float64(alloc)/1e6, float64(budget)/1e6)
	if alloc > budget {
		t.Fatalf("cold build allocates %d bytes, budget %d", alloc, budget)
	}
}

// TestMemberNaiveRows holds every member's naive row, filled by the one walk
// of the table, to the all-AS naive index: the row's entries must be exactly
// what FlatLPM.EntriesOf gives for the member AS's astopo.NewNaiveIndex
// prefixes, in all three reuse tiers. The members include two ports of one
// AS, an AS absent from BGP (no row), AS 0 (on a path of the table) and, in
// both reuse tiers, an AS new to the build, which fills its row by the walk
// while the others re-wrap theirs or fill them too.
func TestMemberNaiveRows(t *testing.T) {
	rib, members, opts, _ := buildRebuildFixture(t)
	anns := rib.Announcements()
	isMember := make(map[bgp.ASN]bool)
	maxPort := uint32(0)
	for _, mi := range members {
		isMember[mi.ASN] = true
		maxPort = max(maxPort, mi.Port)
	}
	// AS 0 sits between a member and an origin on one more path.
	withZero := rebuiltRIB(rib, nil)
	withZero.AddAnnouncement(netx.MustParsePrefix("223.255.240.0/24"), []bgp.ASN{members[0].ASN, 0, anns[0].Origin})
	var joiner bgp.ASN
	for _, a := range anns {
		if !isMember[a.Origin] {
			joiner = a.Origin
			break
		}
	}
	base := append(slices.Clone(members),
		MemberInfo{ASN: members[0].ASN, Port: maxPort + 1},
		MemberInfo{ASN: 4200000000, Port: maxPort + 2},
		MemberInfo{ASN: 0, Port: maxPort + 3})
	grown := append(slices.Clone(base), MemberInfo{ASN: joiner, Port: maxPort + 4})
	delta := rebuiltRIB(withZero, func(i int, a bgp.Announcement) bgp.Announcement {
		if i == 0 {
			a.Prefix = netx.MustParsePrefix("223.255.250.0/24")
		}
		return a
	})

	cold, _, err := RebuildPipeline(nil, withZero, base, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		prev    *Pipeline
		rib     *bgp.RIB
		members []MemberInfo
		want    BuildReuse
	}{
		{nil, withZero, base, BuildCold},
		{cold, withZero, grown, BuildReusedPipeline},
		{cold, delta, grown, BuildReusedClosures},
	} {
		p, st, err := RebuildPipeline(tc.prev, tc.rib, tc.members, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.Reuse != tc.want {
			t.Fatalf("build reuse = %s, want %s", st.Reuse, tc.want)
		}
		naive := astopo.NewNaiveIndex(p.graph, tc.rib.Announcements())
		for _, mi := range tc.members {
			ms := p.byPort[mi.Port]
			if ms.asIdx < 0 {
				if ms.naiveEnts != nil {
					t.Fatalf("%s: AS%d is absent from BGP but has a naive row", st.Reuse, mi.ASN)
				}
				continue
			}
			var want, got []int
			ps := naive.ValidPrefixes(ms.asIdx)
			if i := p.origins.EntriesOf(ps, func(e int32) { want = append(want, int(e)) }); i >= 0 {
				t.Fatalf("%s: AS%d's naive prefix %s is not in the origin table", st.Reuse, mi.ASN, ps[i])
			}
			ms.naiveEnts.ForEach(func(e int) { got = append(got, e) })
			if len(want) == 0 || !slices.Equal(got, want) {
				t.Fatalf("%s: AS%d (port %d) has naive row %v, want the entries %v of its %d naive prefixes",
					st.Reuse, mi.ASN, mi.Port, got, want, len(ps))
			}
			// FilterList reads the row back as prefixes.
			acl, err := p.FilterList(mi.ASN, ApproachNaive)
			if err != nil {
				t.Fatal(err)
			}
			if want := naive.ValidSpace(ms.asIdx).Prefixes(); !slices.Equal(acl, want) {
				t.Fatalf("%s: AS%d's naive ACL %v, want %v", st.Reuse, mi.ASN, acl, want)
			}
		}
	}
}
