package scenario

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"spoofscope/internal/bgp"
	"spoofscope/internal/bogon"
	"spoofscope/internal/netx"
)

func buildSmall(t *testing.T) *Scenario {
	t.Helper()
	s, err := Build(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	good := SmallConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.NumMembers = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("NumMembers=1 accepted")
	}
	bad = good
	bad.SamplingRate = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("SamplingRate=0 accepted")
	}
}

// TestConfigValidateASNRanges checks both generators' tier sizes against
// their ASN ranges, at each boundary: tier-1 ASNs must stay below the transit
// range at 1000 and transit ASNs below the stub range at 10000, or two ASes
// would share an ASN.
func TestConfigValidateASNRanges(t *testing.T) {
	scen := func(edit func(*Config)) func() error {
		c := SmallConfig()
		edit(&c)
		return c.Validate
	}
	synth := func(edit func(*SynthTableConfig)) func() error {
		c := FullTableConfig()
		edit(&c)
		return c.Validate
	}
	for _, tc := range []struct {
		name     string
		validate func() error
		ok       bool
	}{
		{"tier1 99: last ASN 990", scen(func(c *Config) { c.NumTier1 = 99 }), true},
		{"tier1 100: last ASN 1000", scen(func(c *Config) { c.NumTier1 = 100 }), false},
		{"transit 9000: last ASN 9999", scen(func(c *Config) { c.NumTransit = 9000 }), true},
		{"transit 9001: last ASN 10000", scen(func(c *Config) { c.NumTransit = 9001 }), false},
		{"synth tier1 990: last ASN 999", synth(func(c *SynthTableConfig) { c.NumTier1 = 990 }), true},
		{"synth tier1 991: last ASN 1000", synth(func(c *SynthTableConfig) { c.NumTier1 = 991 }), false},
		{"synth transit 9000: last ASN 9999", synth(func(c *SynthTableConfig) { c.NumTransit = 9000 }), true},
		{"synth transit 9001: last ASN 10000", synth(func(c *SynthTableConfig) { c.NumTransit = 9001 }), false},
	} {
		if err := tc.validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestBuildRefusesExhaustedAddressPlan: the small scenario with 2000
// transits needs more unicast space than there is below 224.0.0.0 (its
// transits alone take /11-/13 blocks), so Build refuses it and names an AS
// left without a block; with 1500 transits the plan still fits and every AS
// announces a prefix.
func TestBuildRefusesExhaustedAddressPlan(t *testing.T) {
	cfg := SmallConfig()
	cfg.NumTransit = 2000
	if _, err := Build(cfg); err == nil || !strings.Contains(err.Error(), "does not fit below 224.0.0.0") {
		t.Fatalf("Build with 2000 transits: err = %v, want the plan refused", err)
	}
	cfg.NumTransit = 1500
	s, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build with 1500 transits: %v", err)
	}
	for i := 0; i < s.NumASes(); i++ {
		if a := s.ASInfo(i); len(a.Announced) == 0 {
			t.Fatalf("%s %s announces nothing", a.Tier, a.ASN)
		}
	}
}

// TestSynthTableValidateAddressBoundary holds SynthTableConfig.Validate to
// its arithmetic boundary, building no table. With every prefix at its
// largest size the cursor starts at 1.0.0.0 (2^24), each transit takes a
// /19 (2^13), and each run of eight stubs takes nine /20 slots (2^12): eight
// /20s plus the first stub's /24, after which the next /20 aligns up. A last
// stub that opens a run needs only its /20 and the /24 itself. With two
// transits, 811,914 stubs end exactly at 224.0.0.0; one more does not fit.
func TestSynthTableValidateAddressBoundary(t *testing.T) {
	end := func(transits, stubs uint64) uint64 {
		e := 1<<24 + transits<<13 + stubs<<12 + (stubs+7)/8<<12
		if stubs%8 == 1 {
			e -= 1<<12 - 1<<8
		}
		return e
	}
	if end(2, 811914) != 224<<24 || end(2, 811915) <= 224<<24 {
		t.Fatal("the boundary arithmetic is off")
	}
	cfg := FullTableConfig()
	cfg.NumTransit, cfg.NumStub = 2, 811914
	if err := cfg.Validate(); err != nil {
		t.Fatalf("a plan ending exactly at 224.0.0.0 refused: %v", err)
	}
	cfg.NumStub++
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "does not fit below 224.0.0.0") {
		t.Fatalf("a plan one /20 past 224.0.0.0: err = %v, want it refused", err)
	}
	cfg.NumTransit, cfg.NumStub = 9000, 1<<40 // counting stops past the bound
	if err := cfg.Validate(); err == nil {
		t.Fatal("an absurd stub count accepted")
	}
}

func TestTopologyInvariants(t *testing.T) {
	s := buildSmall(t)
	bogons := bogon.NewReferenceSet()
	for i := 0; i < s.NumASes(); i++ {
		a := s.ASInfo(i)
		// Relationship symmetry.
		for _, p := range a.Providers {
			if !contains(s.ASInfo(p).Customers, i) {
				t.Fatalf("provider link asymmetric: %s", a.ASN)
			}
		}
		for _, q := range a.Peers {
			if !contains(s.ASInfo(q).Peers, i) {
				t.Fatalf("peer link asymmetric: %s", a.ASN)
			}
		}
		// Everyone except tier-1 has a provider.
		if a.Tier != Tier1 && len(a.Providers) == 0 {
			t.Fatalf("%s (%v) has no provider", a.ASN, a.Tier)
		}
		if a.Tier == Tier1 && len(a.Providers) != 0 {
			t.Fatalf("tier-1 %s has a provider", a.ASN)
		}
		// No prefix overlaps bogon space.
		for _, p := range append(append([]netx.Prefix(nil), a.Announced...), a.Held...) {
			if bogons.Contains(p.First()) || bogons.Contains(p.Last()) {
				t.Fatalf("%s allocated bogon-overlapping %v", a.ASN, p)
			}
		}
	}
}

func TestAddressAllocationDisjointAcrossASes(t *testing.T) {
	s := buildSmall(t)
	// Primary (non-PA) blocks must be disjoint across ASes. PA slices are
	// nested inside provider blocks by construction, so check held +
	// first announced block only.
	var ivs []netx.Interval
	for i := 0; i < s.NumASes(); i++ {
		a := s.ASInfo(i)
		ps := a.Held
		if len(a.Announced) > 0 {
			ps = append(append([]netx.Prefix(nil), a.Announced[0]), a.Held...)
		}
		for _, p := range ps {
			ivs = append(ivs, netx.IntervalOf(p))
		}
	}
	set := netx.NewIntervalSet(ivs...)
	var sum uint64
	for _, iv := range ivs {
		sum += iv.Len()
	}
	if set.NumAddrs() != sum {
		t.Fatalf("allocation overlap: union %d != sum %d", set.NumAddrs(), sum)
	}
}

func TestBuildDeterminism(t *testing.T) {
	a, err := Build(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumASes() != b.NumASes() || len(a.Anns) != len(b.Anns) {
		t.Fatalf("non-deterministic build: %v vs %v", a, b)
	}
	for i := range a.Anns {
		x, y := a.Anns[i], b.Anns[i]
		if x.Prefix != y.Prefix || x.Origin != y.Origin || len(x.Path) != len(y.Path) {
			t.Fatalf("announcement %d differs: %v vs %v", i, x, y)
		}
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			t.Fatalf("member %d differs", i)
		}
	}
}

func TestRoutingValleyFree(t *testing.T) {
	s := buildSmall(t)
	// Classify each adjacent pair on every path against ground truth and
	// check the up*-peer?-down* shape.
	relOf := func(l, r int) string {
		la := s.ASInfo(l)
		switch {
		case contains(la.VisibleSiblings, r):
			// Mutual transit: siblings carry each other's routes in any
			// phase without counting as a valley.
			return "sib"
		case contains(la.Providers, r):
			return "up"
		case contains(la.Customers, r):
			return "down"
		case contains(la.Peers, r):
			return "peer"
		default:
			return "?"
		}
	}
	for _, a := range s.Anns {
		// Path is vantage...origin; traffic direction origin->vantage is
		// the reverse. Walk origin->vantage (right to left): phases
		// up* peer? down*.
		phase := 0 // 0=climbing, 1=after peer, 2=descending
		for i := len(a.Path) - 1; i > 0; i-- {
			l := s.ASNIndex(a.Path[i])   // closer to origin
			r := s.ASNIndex(a.Path[i-1]) // next toward vantage
			rel := relOf(l, r)
			switch rel {
			case "sib":
				// Phase-transparent.
			case "up":
				if phase != 0 {
					t.Fatalf("valley in path %v (up after phase %d)", a.Path, phase)
				}
			case "peer":
				if phase != 0 {
					t.Fatalf("second peak in path %v", a.Path)
				}
				phase = 1
			case "down":
				phase = 2
			default:
				t.Fatalf("unknown link %s-%s in path %v", a.Path[i], a.Path[i-1], a.Path)
			}
		}
	}
}

func TestRoutingPrefersCustomerRoutes(t *testing.T) {
	s := buildSmall(t)
	// For every announcement path, the vantage's next hop toward a
	// customer-cone origin must itself be inside the vantage's cone.
	for _, a := range s.Anns {
		v := s.ASNIndex(a.Path[0])
		o := s.ASNIndex(a.Origin)
		// Selectively-exported prefixes legitimately dodge customer routes.
		if s.ASInfo(o).SelectiveExport[a.Prefix] != nil {
			continue
		}
		cone := s.CustomerConeIndices(v)
		inCone := contains(cone, o)
		if inCone && len(a.Path) > 1 {
			nh := s.ASNIndex(a.Path[1])
			if !contains(cone, nh) {
				t.Fatalf("vantage %s reaches cone origin %s via non-cone %s",
					a.Path[0], a.Origin, a.Path[1])
			}
		}
	}
}

func TestSelectiveExportRestrictsPaths(t *testing.T) {
	cfg := SmallConfig()
	cfg.SelectiveAnnounceFraction = 1.0 // force selective announcers
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := 0; i < s.NumASes(); i++ {
		a := s.ASInfo(i)
		for p, allowed := range a.SelectiveExport {
			found = true
			// Every observed path for p must go through the allowed
			// provider as the penultimate hop.
			for _, ann := range s.Anns {
				if ann.Prefix != p || ann.Origin != a.ASN || len(ann.Path) < 2 {
					continue
				}
				penult := s.ASNIndex(ann.Path[len(ann.Path)-2])
				if !contains(allowed, penult) {
					t.Fatalf("selective prefix %v leaked via %s", p, ann.Path[len(ann.Path)-2])
				}
			}
		}
	}
	if !found {
		t.Skip("no selective announcers materialized")
	}
}

func TestMembersShape(t *testing.T) {
	s := buildSmall(t)
	if len(s.Members) != s.Cfg.NumMembers {
		t.Fatalf("members = %d", len(s.Members))
	}
	ports := map[uint32]bool{}
	clean, all3 := 0, 0
	for _, m := range s.Members {
		if ports[m.Port] {
			t.Fatalf("duplicate port %d", m.Port)
		}
		ports[m.Port] = true
		if got := s.MemberByPort(m.Port); got == nil || got.ASN != m.ASN {
			t.Fatalf("MemberByPort(%d) broken", m.Port)
		}
		if !m.EmitsBogon && !m.EmitsUnrouted && !m.EmitsInvalid {
			clean++
		}
		if m.EmitsBogon && m.EmitsUnrouted && m.EmitsInvalid {
			all3++
		}
	}
	// Figure 5 shape: clean ≈ 18%, all-three ≈ 28% (generous tolerance for
	// a small sample).
	n := float64(len(s.Members))
	if f := float64(clean) / n; f < 0.08 || f > 0.40 {
		t.Errorf("clean members = %.2f, want ~0.18-0.25", f)
	}
	if f := float64(all3) / n; f < 0.10 || f > 0.45 {
		t.Errorf("all-three members = %.2f, want ~0.28", f)
	}
	if s.MemberByPort(9999) != nil {
		t.Error("MemberByPort invented a member")
	}
}

func TestAttackPlanShape(t *testing.T) {
	s := buildSmall(t)
	if len(s.Attack.NTPVictims) != 10 {
		t.Fatalf("NTP victims = %d", len(s.Attack.NTPVictims))
	}
	if len(s.Attack.NTPAmplifiers) < 100 {
		t.Fatalf("amplifiers = %d", len(s.Attack.NTPAmplifiers))
	}
	// Exactly one dominant NTP attacker with weight ~0.92.
	dominant := 0
	var totalW float64
	for _, m := range s.Members {
		totalW += m.NTPAttackWeight
		if m.NTPAttackWeight > 0.9 {
			dominant++
		}
	}
	if dominant != 1 {
		t.Fatalf("dominant NTP attackers = %d", dominant)
	}
	if totalW < 0.95 || totalW > 1.05 {
		t.Fatalf("total NTP weight = %f", totalW)
	}
	// Scan list overlaps amplifiers partially (not fully, not zero).
	amp := make(map[netx.Addr]bool)
	for _, a := range s.Attack.NTPAmplifiers {
		amp[a] = true
	}
	overlap := 0
	for _, a := range s.Attack.ScanList {
		if amp[a] {
			overlap++
		}
	}
	if overlap == 0 || overlap == len(s.Attack.NTPAmplifiers) {
		t.Fatalf("scan overlap = %d of %d", overlap, len(s.Attack.NTPAmplifiers))
	}
}

func TestSourcePool(t *testing.T) {
	s := buildSmall(t)
	for i := range s.Members {
		m := &s.Members[i]
		pool := s.SourcePool(m, 200)
		if len(pool) == 0 {
			t.Fatalf("member %s has empty source pool", m.ASN)
		}
		// Own announced space must be in the pool.
		own := s.ASInfo(m.ASIndex).Announced
		if len(own) > 0 {
			found := false
			for _, p := range pool {
				if p == own[0] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("member %s pool missing own prefix", m.ASN)
			}
		}
	}
}

func TestWriteMRTRoundTrip(t *testing.T) {
	s := buildSmall(t)
	var buf bytes.Buffer
	if err := s.WriteMRT(&buf); err != nil {
		t.Fatal(err)
	}
	rib := bgp.NewRIB()
	if err := rib.LoadMRT(&buf); err != nil {
		t.Fatal(err)
	}
	// Every distinct (prefix, path) of the scenario must survive the MRT
	// round trip into the RIB.
	want := make(map[string]bool)
	for _, a := range s.Anns {
		if a.Prefix.Bits >= 8 && a.Prefix.Bits <= 24 {
			want[announcementKeyForTest(a)] = true
		}
	}
	got := make(map[string]bool)
	for _, a := range rib.Announcements() {
		got[announcementKeyForTest(a)] = true
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("announcement lost in MRT round trip")
		}
	}
	if len(got) != len(want) {
		t.Fatalf("RIB has %d announcements, scenario %d", len(got), len(want))
	}
}

func announcementKeyForTest(a bgp.Announcement) string {
	b := make([]byte, 0, 64)
	b = append(b, byte(a.Prefix.Addr>>24), byte(a.Prefix.Addr>>16),
		byte(a.Prefix.Addr>>8), byte(a.Prefix.Addr), a.Prefix.Bits)
	for _, as := range a.Path {
		b = append(b, byte(as>>24), byte(as>>16), byte(as>>8), byte(as))
	}
	return string(b)
}

func TestUnroutedSpaceExists(t *testing.T) {
	s := buildSmall(t)
	held := s.AllHeldPrefixes()
	if len(held) == 0 {
		t.Fatal("no held (unrouted) prefixes")
	}
	// Held space is inside routable but must not be announced.
	announced := make(map[netx.Prefix]bool)
	for i := 0; i < s.NumASes(); i++ {
		for _, p := range s.ASInfo(i).Announced {
			announced[p] = true
		}
	}
	for _, h := range held {
		if announced[h] {
			t.Fatalf("held prefix %v also announced", h)
		}
		if !s.RoutableSpace().Contains(h.First()) {
			t.Fatalf("held prefix %v outside routable space", h)
		}
	}
}

func TestPropagateHandlesDisconnectedOrigin(t *testing.T) {
	// An origin whose only provider is excluded by the filter reaches
	// nobody.
	cfg := SmallConfig()
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Find a single-homed stub.
	for i := 0; i < s.NumASes(); i++ {
		a := s.ASInfo(i)
		if a.Tier == Stub && len(a.Providers) == 1 && len(a.Peers) == 0 && len(a.Customers) == 0 {
			rt := s.topo.propagate(i, exportFilter{})
			for v := 0; v < s.NumASes(); v++ {
				if v != i && rt.class[v] != classNone {
					t.Fatalf("filtered origin still reached %s", s.ASInfo(v).ASN)
				}
			}
			return
		}
	}
	t.Skip("no single-homed stub found")
}

func TestCustomerConeIndicesSorted(t *testing.T) {
	s := buildSmall(t)
	rng := rand.New(rand.NewSource(2))
	for k := 0; k < 20; k++ {
		i := rng.Intn(s.NumASes())
		cone := s.CustomerConeIndices(i)
		if !contains(cone, i) {
			t.Fatal("cone must include self")
		}
		for j := 1; j < len(cone); j++ {
			if cone[j-1] >= cone[j] {
				t.Fatal("cone not sorted")
			}
		}
	}
}
