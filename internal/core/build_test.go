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
// verdicts per flow and byte-identical canonical checkpoints.
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
	ablated.DisableOrgMerge = true
	_, stOpt, err := RebuildPipeline(cold, rib, members, ablated)
	if err != nil {
		t.Fatal(err)
	}
	if stOpt.Reuse != BuildCold {
		t.Fatalf("option-change rebuild reuse = %s, want cold", stOpt.Reuse)
	}
}

// TestBuildWorkersEquivalence proves the parallel compilation path emits a
// pipeline indistinguishable from the sequential one: same verdicts, same
// checkpoint bytes. GOMAXPROCS is raised so the worker pool truly runs
// multi-goroutine even on a 1-CPU host.
func TestBuildWorkersEquivalence(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rib, members, opts, flows := buildRebuildFixture(t)
	dir := t.TempDir()

	seqOpts := opts
	seqOpts.BuildWorkers = 1
	seq, stSeq, err := RebuildPipeline(nil, rib, members, seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	if stSeq.Workers != 1 {
		t.Fatalf("sequential build ran %d workers", stSeq.Workers)
	}
	ref := runParallel(t, seq, flows, 0, filepath.Join(dir, "w1.ckpt"))

	for _, w := range []int{2, 4, 16} {
		parOpts := opts
		parOpts.BuildWorkers = w
		par, stPar, err := RebuildPipeline(nil, rib, members, parOpts)
		if err != nil {
			t.Fatal(err)
		}
		want := w
		if want > 4 {
			want = 4 // clamped to GOMAXPROCS
		}
		if stPar.Workers != want {
			t.Fatalf("BuildWorkers=%d ran %d workers, want %d", w, stPar.Workers, want)
		}
		requireSameVerdicts(t, "parallel-build", seq, par, flows)
		got := runParallel(t, par, flows, 0, filepath.Join(dir, "wN.ckpt"))
		if !bytes.Equal(ref, got) {
			t.Fatalf("BuildWorkers=%d checkpoint differs from sequential build's", w)
		}
	}
}
