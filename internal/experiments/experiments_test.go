package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"spoofscope/internal/core"
)

// sharedEnv builds one small environment for all experiment tests (it is
// read-mostly; Section44 mutates and therefore gets its own).
var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() { envVal, envErr = NewEnv(SmallOptions()) })
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func TestFigure1aShape(t *testing.T) {
	r := Figure1a(testEnv(t))
	if r.BogonFrac < 0.13 || r.BogonFrac > 0.15 {
		t.Errorf("bogon fraction = %v, want ~0.138", r.BogonFrac)
	}
	if r.RoutedFracOfRoutable <= 0 || r.RoutedFracOfRoutable >= 1 {
		t.Errorf("routed fraction = %v", r.RoutedFracOfRoutable)
	}
	if r.UnroutedFracOfRoutable <= 0 {
		t.Error("no unrouted space")
	}
	if !strings.Contains(r.Render(), "bogon") {
		t.Error("render broken")
	}
}

func TestFigure2Shape(t *testing.T) {
	r := Figure2(testEnv(t))
	if r.NumASes == 0 {
		t.Fatal("no ASes")
	}
	// Per-rank dominance at the quantiles: full-cone+orgs >= full-cone >=
	// naive at the top end; org variants >= plain variants everywhere.
	for _, pair := range [][2]string{
		{"customer-cone", "customer-cone+orgs"},
		{"full-cone", "full-cone+orgs"},
	} {
		plain, org := r.Curves[pair[0]], r.Curves[pair[1]]
		for _, q := range []float64{0.5, 0.9, 1.0} {
			p := quantilesOf(plain, []float64{q})[0]
			o := quantilesOf(org, []float64{q})[0]
			if o < p {
				t.Errorf("%s < %s at q=%v: %d < %d", pair[1], pair[0], q, o, p)
			}
		}
	}
	// Full cone dominates naive and CC at the high quantiles.
	for _, name := range []string{"naive", "customer-cone"} {
		hi := quantilesOf(r.Curves[name], []float64{0.99})[0]
		full := quantilesOf(r.Curves["full-cone"], []float64{0.99})[0]
		if full < hi {
			t.Errorf("full-cone p99 (%d) below %s p99 (%d)", full, name, hi)
		}
	}
	if r.FullTableASes == 0 {
		t.Error("no AS valid for (almost) the whole table — full-cone inflation missing")
	}
	if !strings.Contains(r.Render(), "full-cone+orgs") {
		t.Error("render broken")
	}
}

func TestConeContainmentHolds(t *testing.T) {
	r := ConeContainment(testEnv(t))
	if r.NaiveViolets != 0 {
		t.Errorf("naive ⊄ full: %d violations", r.NaiveViolets)
	}
	if r.CCViolets != 0 {
		t.Errorf("CC ⊄ full: %d violations", r.CCViolets)
	}
	if r.OrgShrinksAny != 0 {
		t.Errorf("org merge shrank %d cones", r.OrgShrinksAny)
	}
	if r.OrgGrowsCC == 0 {
		t.Error("org merge grew nothing — multi-AS orgs inert")
	}
}

func TestTable1Shape(t *testing.T) {
	r := Table1(testEnv(t))
	get := func(name string) *Table1Row { return table1Row(t, r, name) }
	bogon, unrouted := get("bogon"), get("unrouted")
	full, naive, cc := get("invalid-full"), get("invalid-naive"), get("invalid-cc")

	// Participation: the majority of members emit bogon traffic; more
	// members are flagged by naive/cc than by full.
	if bogon.MemberFrac < 0.5 {
		t.Errorf("bogon members = %v, want majority", bogon.MemberFrac)
	}
	if naive.Members < full.Members || cc.Members < full.Members {
		t.Errorf("member ordering violated: naive=%d cc=%d full=%d",
			naive.Members, cc.Members, full.Members)
	}
	// Volume ordering (the key Table 1 shape).
	if !(naive.Packets >= cc.Packets && cc.Packets >= full.Packets) {
		t.Errorf("packet ordering violated: naive=%d cc=%d full=%d",
			naive.Packets, cc.Packets, full.Packets)
	}
	// Spoofed classes are a small share of traffic.
	for _, row := range []*Table1Row{bogon, unrouted, full} {
		if row.PacketFrac > 0.25 {
			t.Errorf("%s packet share = %v, want small", row.Class, row.PacketFrac)
		}
	}
	// Org merging matters far more for CC than for FULL.
	if r.OrgImpactCC <= r.OrgImpactFull {
		t.Errorf("org impact: CC %v <= FULL %v, want CC >> FULL",
			r.OrgImpactCC, r.OrgImpactFull)
	}
	if !strings.Contains(r.Render(), "invalid-naive") {
		t.Error("render broken")
	}
}

func TestFigure4Shape(t *testing.T) {
	r := Figure4(testEnv(t))
	// Invalid reaches (near) 100% for some member (hidden peers).
	if r.MaxInvalid < 0.5 {
		t.Errorf("max invalid share = %v, want some member near 1", r.MaxInvalid)
	}
	// Bogon/unrouted shares stay small per member.
	if r.MaxBogon > 0.5 || r.MaxUnrouted > 0.6 {
		t.Errorf("bogon/unrouted member shares too large: %v %v", r.MaxBogon, r.MaxUnrouted)
	}
}

func TestFigure5Shape(t *testing.T) {
	r := Figure5(testEnv(t))
	clean := r.Venn.Fraction(false, false, false)
	all3 := r.Venn.Fraction(true, true, true)
	if clean < 0.05 || clean > 0.45 {
		t.Errorf("clean fraction = %v", clean)
	}
	if all3 < 0.08 {
		t.Errorf("all-three fraction = %v", all3)
	}
	if r.UnroutedAlsoOther < 0.7 {
		t.Errorf("unrouted-also-other = %v, want high (paper 96%%)", r.UnroutedAlsoOther)
	}
}

func TestFigure6Shape(t *testing.T) {
	r := Figure6(testEnv(t))
	if len(r.PerType) < 3 {
		t.Fatalf("only %d business types", len(r.PerType))
	}
	content, hosting := r.PerType["Content"], r.PerType["Hosting"]
	if content == nil || hosting == nil {
		t.Skip("types missing in small scenario")
	}
	// Content members are cleaner than hosting members (rate-wise).
	cleanContent := float64(content.CleanMembers) / float64(content.Members)
	cleanHosting := float64(hosting.CleanMembers) / float64(hosting.Members)
	if cleanContent < cleanHosting {
		t.Errorf("content clean rate %v < hosting %v", cleanContent, cleanHosting)
	}
}

func TestFigure7Shape(t *testing.T) {
	r := Figure7(testEnv(t))
	if r.RouterDominated == 0 {
		t.Error("no router-dominated members found")
	}
	if r.InvalidMemberFracAfter >= r.InvalidMemberFracBefore {
		t.Error("filter removed nothing")
	}
	if r.StrayICMPFrac < 0.6 {
		t.Errorf("stray ICMP fraction = %v, want ~0.83", r.StrayICMPFrac)
	}
	if r.RouterShareOfInvalid > 0.6 {
		t.Errorf("router share of invalid = %v, want minority", r.RouterShareOfInvalid)
	}
}

func TestFigure8Shape(t *testing.T) {
	env := testEnv(t)
	a := Figure8a(env)
	// Bogon/unrouted are almost exclusively small; Invalid is small-heavy
	// but still carries the §4.4 false positives (regular-shaped traffic)
	// that the paper removed before its §6 analysis.
	for _, c := range []core.TrafficClass{core.TCBogon, core.TCUnrouted} {
		if a.SmallFrac[c] < 0.8 {
			t.Errorf("%v small-packet fraction = %v, want > 0.8", c, a.SmallFrac[c])
		}
	}
	if a.SmallFrac[core.TCInvalidFull] < 0.55 {
		t.Errorf("invalid small-packet fraction = %v, want > 0.55 pre-cleanup", a.SmallFrac[core.TCInvalidFull])
	}
	if a.SmallFrac[core.TCRegular] > 0.7 {
		t.Errorf("regular small fraction = %v, want bimodal", a.SmallFrac[core.TCRegular])
	}

	b := Figure8b(env)
	if len(b.Series[core.TCRegular]) == 0 {
		t.Fatal("no regular series")
	}
	if b.Spikiness[core.TCUnrouted] < 2*b.Spikiness[core.TCRegular] {
		t.Errorf("unrouted spikiness %v not clearly above regular %v",
			b.Spikiness[core.TCUnrouted], b.Spikiness[core.TCRegular])
	}
}

func TestFigure9Shape(t *testing.T) {
	r := Figure9(testEnv(t))
	if r.NTPDstFracInvalid < 0.5 {
		t.Errorf("invalid UDP toward NTP = %v, want dominant (paper >0.9)", r.NTPDstFracInvalid)
	}
	if r.WebDstFracSpoofed < 0.5 {
		t.Errorf("spoofed TCP toward web = %v, want majority", r.WebDstFracSpoofed)
	}
}

func TestFigure10Shape(t *testing.T) {
	r := Figure10(testEnv(t))
	// Unrouted sources spread across many /8s; destinations concentrate.
	if r.SrcBins90[core.TCUnrouted] < 3*r.DstBins90[core.TCUnrouted] {
		t.Errorf("unrouted src bins (%d) not much wider than dst bins (%d)",
			r.SrcBins90[core.TCUnrouted], r.DstBins90[core.TCUnrouted])
	}
	if r.BogonPrivateFrac < 0.5 {
		t.Errorf("bogon private fraction = %v", r.BogonPrivateFrac)
	}
}

func TestFigure11Shape(t *testing.T) {
	env := testEnv(t)
	a := Figure11aWithMin(env, 10)
	if a.UniformFracUnrouted < 0.7 {
		t.Errorf("unrouted uniform fraction = %v, want ~0.9", a.UniformFracUnrouted)
	}
	// The scale-free signature: invalid destinations (amplifiers) see far
	// fewer distinct sources per packet than flood destinations.
	invP50 := a.Ratios[core.TCInvalidFull].Quantile(0.5)
	unrP50 := a.Ratios[core.TCUnrouted].Quantile(0.5)
	if !(invP50 < unrP50) {
		t.Errorf("invalid ratio p50 %v not below unrouted p50 %v", invP50, unrP50)
	}

	b := Figure11b(env)
	if len(b.Victims) < 5 {
		t.Fatalf("only %d victims profiled", len(b.Victims))
	}
	if b.DominantMemberShare < 0.8 {
		t.Errorf("dominant member share = %v, want ~0.92", b.DominantMemberShare)
	}
	if b.Top5Share < b.DominantMemberShare {
		t.Error("top5 share below top1")
	}
	// Victim strategies differ: some use few amplifiers, some many.
	minAmp, maxAmp := b.Victims[0].Amplifiers, b.Victims[0].Amplifiers
	for _, v := range b.Victims {
		if v.Amplifiers < minAmp {
			minAmp = v.Amplifiers
		}
		if v.Amplifiers > maxAmp {
			maxAmp = v.Amplifiers
		}
	}
	if maxAmp < 2*minAmp {
		t.Errorf("amplifier strategies too similar: %d..%d", minAmp, maxAmp)
	}

	c := Figure11c(env)
	if c.PairedPairs == 0 {
		t.Fatal("no paired amplification flows")
	}
	if c.ByteAmplification < 5 || c.ByteAmplification > 20 {
		t.Errorf("byte amplification = %v, want ~10", c.ByteAmplification)
	}
	if c.PacketRatio < 0.2 || c.PacketRatio > 2 {
		t.Errorf("packet ratio = %v, want ~similar", c.PacketRatio)
	}
}

func TestSection7Shape(t *testing.T) {
	r := Section7NTP(testEnv(t))
	if r.ContactedAmplifiers == 0 || r.Overlap == 0 {
		t.Fatalf("degenerate: %+v", r)
	}
	if r.Overlap >= r.ContactedAmplifiers {
		t.Errorf("overlap %d not partial of %d", r.Overlap, r.ContactedAmplifiers)
	}
	if r.TriggerMembers == 0 {
		t.Error("no trigger members")
	}
}

func TestSection45Shape(t *testing.T) {
	r := Section45(testEnv(t))
	if r.Cross.Overlap == 0 {
		t.Fatal("no overlap")
	}
	// Passive detects more than active confirms (different vantage).
	if r.PassiveDetectedFrac <= r.ActiveSpoofableFrac {
		t.Errorf("passive %v <= active %v, paper has passive higher",
			r.PassiveDetectedFrac, r.ActiveSpoofableFrac)
	}
	if r.PassiveCoversActive < 0.5 {
		t.Errorf("passive covers active = %v, want majority (paper 69%%)", r.PassiveCoversActive)
	}
}

func TestSection44ReducesInvalid(t *testing.T) {
	// Fresh env: Section44 mutates the pipeline.
	env, err := NewEnv(SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := Section44(env, 40)
	if r.MissingLinks == 0 {
		t.Fatal("no missing links found")
	}
	if r.PktReduction <= 0 || r.ByteReduction <= 0 {
		t.Fatalf("no reduction: %+v", r)
	}
	if r.InvalidPktsAfter >= r.InvalidPktsBefore {
		t.Fatal("invalid grew")
	}
	// A meaningful share of invalid is cleaned (paper: 40% pkts).
	if r.PktReduction < 0.03 {
		t.Errorf("packet reduction = %v, want visible effect", r.PktReduction)
	}
	if !strings.Contains(r.Render(), "missing relationships") {
		t.Error("render broken")
	}
}

func TestSection22Shape(t *testing.T) {
	s := Section22(testEnv(t))
	if s.Responses < 10 {
		t.Fatalf("responses = %d", s.Responses)
	}
	// Majority suffered attacks; static ingress filtering dominates.
	if s.SufferedFrac < 0.5 {
		t.Errorf("suffered = %v", s.SufferedFrac)
	}
	if s.IngressStaticFrac < s.IngressCustomerFrac {
		t.Error("ingress static should dominate customer-specific")
	}
}

func TestAttackCatalogue(t *testing.T) {
	r := AttackCatalogue(testEnv(t))
	if len(r.Floods) == 0 || len(r.Campaigns) == 0 {
		t.Fatalf("catalogue degenerate: %d floods, %d campaigns", len(r.Floods), len(r.Campaigns))
	}
	// Floods show the random-spoofing signature; the top campaign shows
	// real amplification.
	if r.Floods[0].SourceRatio < 0.9 {
		t.Errorf("top flood ratio = %v", r.Floods[0].SourceRatio)
	}
	if r.Campaigns[0].AmplificationRatio < 3 {
		t.Errorf("top campaign amplification = %v", r.Campaigns[0].AmplificationRatio)
	}
	if !strings.Contains(r.Render(), "attack catalogue") {
		t.Error("render broken")
	}
}

func TestDeploymentLeverage(t *testing.T) {
	r := DeploymentLeverage(testEnv(t))
	if r.MembersEmitting == 0 || r.TotalSpoofedPkt == 0 {
		t.Fatal("no spoofed traffic ranked")
	}
	// Monotone, ends at 1.
	for k := 2; k < len(r.Coverage); k++ {
		if r.Coverage[k] < r.Coverage[k-1] {
			t.Fatal("coverage not monotone")
		}
	}
	if got := r.CoverageAt(r.MembersEmitting); got < 0.999 {
		t.Fatalf("full coverage = %v", got)
	}
	// Heavy concentration: the top 10 members carry a large share.
	if r.CoverageAt(10) < 0.4 {
		t.Errorf("top-10 coverage = %v, want heavy concentration", r.CoverageAt(10))
	}
	if r.CoverageAt(0) != 0 || r.CoverageAt(10_000) != 1 {
		t.Error("CoverageAt bounds broken")
	}
}

func TestRunAll(t *testing.T) {
	// Fresh env: RunAll ends with the mutating Section 4.4.
	env, err := NewEnv(SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RunAll(env, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"## Table 1", "## Figure 11c", "## Section 4.4", "invalid-naive",
		"amplification",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RunAll output missing %q", want)
		}
	}
}

// table1Row returns r's row for a class name, failing t if there is none.
func table1Row(t *testing.T, r *Table1Result, class string) *Table1Row {
	t.Helper()
	for i := range r.Rows {
		if r.Rows[i].Class == class {
			return &r.Rows[i]
		}
	}
	t.Fatalf("missing row %s", class)
	return nil
}
