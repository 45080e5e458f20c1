package core

import (
	"bytes"
	"path/filepath"
	"runtime"
	"testing"

	"spoofscope/internal/bgp"
	"spoofscope/internal/flowgen"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
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
	members2, flows2 := memberChange(t, cold, members, flows)
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
func memberChange(t *testing.T, p *Pipeline, members []MemberInfo, flows []ipfix.Flow) ([]MemberInfo, []ipfix.Flow) {
	t.Helper()
	isMember := make(map[bgp.ASN]bool, len(members))
	var maxPort uint32
	for _, m := range members {
		isMember[m.ASN] = true
		maxPort = max(maxPort, m.Port)
	}
	g := p.Graph()
	added := -1
	for i := range g.NumASes() {
		if !isMember[g.ASN(i)] && (added < 0 || g.Degree(i) > g.Degree(added)) {
			added = i
		}
	}
	if added < 0 {
		t.Fatal("every AS is a member")
	}
	oldPort, movedPort, addedPort := members[0].Port, maxPort+1, maxPort+2
	out := append([]MemberInfo(nil), members...)
	out[0].Port = movedPort
	out = append(out, MemberInfo{ASN: g.ASN(added), Port: addedPort})

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

// TestReusedClosuresRebuildAllocs holds an announcement-only rebuild (one
// prefix renumbered, every path kept) to an allocation ceiling: the prefix
// layers it recompiles allocate per table, not per AS or per hop. The count
// is taken sequentially (GOMAXPROCS=1), where it does not depend on
// scheduling. The small scenario's rebuild (249 ASes, 387 prefixes) measured
// 325 allocations; the ceiling leaves room for map growth to vary, and sits
// far below the 951 of the naive index that kept a slice per AS and hashed
// every hop.
func TestReusedClosuresRebuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const ceiling = 400
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
	var stats BuildStats
	allocs := testing.AllocsPerRun(3, func() {
		if _, stats, err = RebuildPipeline(prev, delta, members, opts); err != nil {
			t.Fatal(err)
		}
	})
	if stats.Reuse != BuildReusedClosures {
		t.Fatalf("announcement-only delta rebuilt as %s, want reused-closures", stats.Reuse)
	}
	t.Logf("reused-closures rebuild of %d ASes, %d prefixes: %.0f allocations", stats.ASes, stats.Prefixes, allocs)
	if allocs > ceiling {
		t.Fatalf("reused-closures rebuild allocates %.0f times, ceiling %d", allocs, ceiling)
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
	rib := st.RIB()
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
