package org

import (
	"bytes"
	"testing"

	"spoofscope/internal/bgp"
)

func testDataset() *Dataset {
	return NewDataset([]Org{
		{ID: "ORG-A", Name: "Alpha Networks", ASNs: []bgp.ASN{65002, 65001}},
		{ID: "ORG-B", Name: "Beta Hosting", ASNs: []bgp.ASN{65010}},
		{ID: "ORG-C", Name: "Gamma Transit", ASNs: []bgp.ASN{65020, 65021, 65022}},
	})
}

func TestOrgOf(t *testing.T) {
	d := testDataset()
	o, ok := d.OrgOf(65001)
	if !ok || o.ID != "ORG-A" {
		t.Fatalf("OrgOf(65001) = %+v %v", o, ok)
	}
	if _, ok := d.OrgOf(99999); ok {
		t.Fatal("OrgOf matched unknown AS")
	}
	// ASNs are sorted inside the org.
	if o.ASNs[0] != 65001 || o.ASNs[1] != 65002 {
		t.Fatalf("ASNs not sorted: %v", o.ASNs)
	}
}

// sameOrg reports whether OrgOf attributes both ASes to one organization.
func sameOrg(d *Dataset, a, b bgp.ASN) bool {
	oa, oka := d.OrgOf(a)
	ob, okb := d.OrgOf(b)
	return oka && okb && oa.ID == ob.ID
}

func TestSameOrg(t *testing.T) {
	d := testDataset()
	if !sameOrg(d, 65001, 65002) {
		t.Error("65001 and 65002 share ORG-A")
	}
	if sameOrg(d, 65001, 65010) {
		t.Error("different orgs reported as same")
	}
	if sameOrg(d, 65001, 99999) {
		t.Error("unknown AS reported as same org")
	}
}

func TestMultiASGroups(t *testing.T) {
	d := testDataset()
	groups := d.MultiASGroups()
	if len(groups) != 2 {
		t.Fatalf("MultiASGroups = %v", groups)
	}
	for _, g := range groups {
		if len(g) < 2 {
			t.Fatalf("single-AS group leaked: %v", g)
		}
	}
}

func TestDuplicateASAttribution(t *testing.T) {
	d := NewDataset([]Org{
		{ID: "ORG-1", ASNs: []bgp.ASN{65001}},
		{ID: "ORG-2", ASNs: []bgp.ASN{65001, 65002}},
	})
	o, _ := d.OrgOf(65001)
	if o.ID != "ORG-1" {
		t.Fatalf("duplicate AS attributed to %s, want first org", o.ID)
	}
}

func TestRoundTrip(t *testing.T) {
	d := testDataset()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("Len = %d want %d", got.Len(), d.Len())
	}
	if !sameOrg(got, 65020, 65022) {
		t.Fatal("round trip lost org membership")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("{not json"))); err == nil {
		t.Fatal("Read accepted garbage")
	}
}
