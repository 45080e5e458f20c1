package whois

import (
	"bytes"
	"strings"
	"testing"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
	"spoofscope/internal/scenario"
)

func sample() *Registry {
	r := NewRegistry()
	r.AddOrganisation(Organisation{ID: "ORG-X", Name: "X Networks", Contact: "AC-1"})
	r.AddOrganisation(Organisation{ID: "ORG-Y", Name: "Y Hosting", Contact: "AC-1"}) // shared contact
	r.AddOrganisation(Organisation{ID: "ORG-Z", Name: "Z Transit", Contact: "AC-9"})
	r.AddAutNum(AutNum{
		ASN: 65001, OrgID: "ORG-X", Contact: "AC-1",
		Imports: []bgp.ASN{65010}, Exports: []bgp.ASN{65010},
	})
	r.AddAutNum(AutNum{ASN: 65002, OrgID: "ORG-X"})
	r.AddAutNum(AutNum{ASN: 65003, OrgID: "ORG-Y"})
	r.AddAutNum(AutNum{ASN: 65009, OrgID: "ORG-Z"})
	r.AddAutNum(AutNum{ASN: 65010, OrgID: "ORG-Z"})
	r.AddRoute(Route{Prefix: netx.MustParsePrefix("203.0.113.0/24"), Origin: 65001, OrgID: "ORG-X"})
	return r
}

func TestMissingLinkEvidence(t *testing.T) {
	r := sample()
	cases := []struct {
		a, b bgp.ASN
		kind string
		ok   bool
	}{
		{65001, 65010, "import-export", true}, // policy lines
		{65010, 65001, "import-export", true}, // symmetric query
		{65001, 65002, "same-org", true},
		{65001, 65003, "shared-contact", true}, // ORG-X and ORG-Y share AC-1
		{65002, 65009, "", false},
		{65001, 99999, "", false}, // unknown AS
	}
	for _, c := range cases {
		ev, ok := r.MissingLinkEvidence(c.a, c.b)
		if ok != c.ok {
			t.Errorf("evidence(%s,%s) = %v, want %v", c.a, c.b, ok, c.ok)
			continue
		}
		if ok && ev.Kind != c.kind {
			t.Errorf("evidence(%s,%s) kind = %s, want %s", c.a, c.b, ev.Kind, c.kind)
		}
	}
}

func TestSaveParseRoundTrip(t *testing.T) {
	r := sample()
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := got.AutNum(65001)
	if !ok || a.OrgID != "ORG-X" || len(a.Imports) != 1 || a.Imports[0] != 65010 {
		t.Fatalf("aut-num lost in round trip: %+v %v", a, ok)
	}
	o, ok := got.orgs["ORG-Y"]
	if !ok || o.Contact != "AC-1" {
		t.Fatalf("organisation lost: %+v %v", o, ok)
	}
	routes := got.RoutesByOrigin(65001)
	if len(routes) != 1 || routes[0].Prefix != netx.MustParsePrefix("203.0.113.0/24") {
		t.Fatalf("routes lost: %+v", routes)
	}
	// Evidence still works after round trip.
	if _, ok := got.MissingLinkEvidence(65001, 65003); !ok {
		t.Fatal("shared-contact evidence lost in round trip")
	}
}

func TestParseHandRolledAndComments(t *testing.T) {
	src := `
% RIPE-style comment
# hash comment

aut-num: AS64512
org: ORG-H
import: from AS64513 accept AS-SET-FOO
export: to AS64513 announce AS64512

route: 198.51.100.0/24
origin: AS64512
`
	r, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	a, ok := r.AutNum(64512)
	if !ok || len(a.Imports) != 1 || a.Imports[0] != 64513 {
		t.Fatalf("parsed aut-num: %+v %v", a, ok)
	}
	if len(r.RoutesByOrigin(64512)) != 1 {
		t.Fatal("route object missing")
	}
}

func TestParseRejectsBadObjects(t *testing.T) {
	if _, err := Parse(strings.NewReader("aut-num: ASxyz\n")); err == nil {
		t.Fatal("bad ASN accepted")
	}
	if _, err := Parse(strings.NewReader("route: not-a-prefix\norigin: AS1\n")); err == nil {
		t.Fatal("bad prefix accepted")
	}
}

func TestFromScenarioHiddenPeers(t *testing.T) {
	s, err := scenario.Build(scenario.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := FromScenario(s)

	// Every announced prefix has a route object.
	for i := 0; i < s.NumASes(); i++ {
		a := s.ASInfo(i)
		if len(a.Announced) > 0 && len(r.RoutesByOrigin(a.ASN)) < len(a.Announced) {
			t.Fatalf("missing route objects for %s", a.ASN)
		}
	}

	// Hidden peerings yield import/export evidence.
	foundHidden := false
	for _, m := range s.Members {
		if m.HiddenPeerAS < 0 {
			continue
		}
		foundHidden = true
		partner := s.ASInfo(m.HiddenPeerAS).ASN
		ev, ok := r.MissingLinkEvidence(m.ASN, partner)
		if !ok || ev.Kind != "import-export" {
			t.Fatalf("hidden peer %s-%s not discoverable: %+v %v", m.ASN, partner, ev, ok)
		}
	}
	if !foundHidden {
		t.Skip("no hidden peers in this scenario")
	}
}

func TestFromScenarioOrgEvidence(t *testing.T) {
	s, err := scenario.Build(scenario.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := FromScenario(s)
	for _, grp := range s.Orgs().MultiASGroups() {
		// Evidence kind may be import-export when the pair also has a
		// registered interconnect; any positive evidence suffices.
		if ev, ok := r.MissingLinkEvidence(grp[0], grp[1]); !ok {
			t.Fatalf("org siblings %s-%s not discoverable: %+v %v", grp[0], grp[1], ev, ok)
		}
		return
	}
	t.Skip("no multi-AS orgs in this scenario")
}
