package bogon

import (
	"testing"

	"spoofscope/internal/netx"
)

func TestReferenceShape(t *testing.T) {
	entries := Reference()
	if len(entries) != 14 {
		t.Fatalf("reference list has %d prefixes, want 14", len(entries))
	}
	for i, e := range entries {
		if e.Prefix != netx.PrefixFrom(e.Prefix.Addr, e.Prefix.Bits) {
			t.Errorf("entry %d has host bits set: %v", i, e.Prefix)
		}
		// Sorted by address and disjoint: each range ends before the next.
		if i > 0 && entries[i-1].Prefix.Last() >= e.Prefix.First() {
			t.Errorf("entries overlap or are out of order: %v %v", entries[i-1].Prefix, e.Prefix)
		}
	}
}

func TestReferenceSlash24Equivalents(t *testing.T) {
	s := NewReferenceSet()
	// The paper's §3.3 quotes "218K /24 equivalents", which is inconsistent
	// with its own Figure 1a (bogon = 13.8% of IPv4 space ≈ 2.3M /24s; 218K
	// is the list size *excluding* multicast and class E). Figure 10 shows
	// multicast/future-use sources classified as Bogon, so the full list is
	// authoritative: 14 prefixes covering 13.8% of the address space.
	got := s.Space().Slash24Equivalents()
	if got != 2_315_269 && got != 2_315_268 {
		t.Fatalf("bogon space = %d /24s, want ~2.315M (13.8%% of IPv4)", got)
	}
	frac := float64(s.Space().NumAddrs()) / float64(1<<32)
	if frac < 0.137 || frac > 0.139 {
		t.Fatalf("bogon fraction = %.4f, want ~0.138", frac)
	}
}

func TestContains(t *testing.T) {
	s := NewReferenceSet()
	in := []string{
		"10.1.2.3", "172.16.0.1", "172.31.255.255", "192.168.100.1",
		"100.64.0.1", "100.127.255.255", "127.0.0.1", "169.254.9.9",
		"0.1.2.3", "192.0.2.55", "198.51.100.1", "203.0.113.254",
		"198.18.0.1", "198.19.255.255", "224.0.0.5", "239.255.255.255",
		"240.0.0.1", "255.255.255.255", "192.0.0.10",
	}
	out := []string{
		"8.8.8.8", "100.128.0.0", "172.32.0.0", "192.169.0.0",
		"11.0.0.0", "126.255.255.255", "128.0.0.1", "198.20.0.0",
		"223.255.255.255", "192.0.3.0", "1.1.1.1", "100.63.255.255",
	}
	for _, a := range in {
		if !s.Contains(netx.MustParseAddr(a)) {
			t.Errorf("%s should be bogon", a)
		}
	}
	for _, a := range out {
		if s.Contains(netx.MustParseAddr(a)) {
			t.Errorf("%s should not be bogon", a)
		}
	}
}

func TestMatchProvenance(t *testing.T) {
	for _, c := range []struct{ addr, origin string }{
		{"10.9.8.7", "RFC1918 (private)"},
		{"100.100.0.1", "RFC6598 (shared/CGN)"},
		{"203.0.113.9", "RFC5737 (TEST-NET-3)"},
		{"8.8.8.8", ""},
	} {
		a := netx.MustParseAddr(c.addr)
		var got string
		for _, e := range Reference() {
			if e.Prefix.Contains(a) {
				got = e.Origin
			}
		}
		if got != c.origin || NewReferenceSet().Contains(a) != (c.origin != "") {
			t.Errorf("%s: covered by %q, want %q", c.addr, got, c.origin)
		}
	}
}

func TestZeroValueSet(t *testing.T) {
	var s Set
	if s.Contains(netx.MustParseAddr("10.0.0.1")) {
		t.Fatal("zero Set must match nothing")
	}
	if len(s.Prefixes()) != 0 || !s.Space().IsEmpty() {
		t.Fatal("zero Set must hold nothing")
	}
}

func TestCustomSet(t *testing.T) {
	s := NewSet([]Entry{{netx.MustParsePrefix("198.51.100.0/24"), "custom"}})
	if !s.Contains(netx.MustParseAddr("198.51.100.7")) {
		t.Fatal("custom entry not matched")
	}
	if s.Contains(netx.MustParseAddr("10.0.0.1")) {
		t.Fatal("custom set matched reference range")
	}
	if n := s.Space().Slash24Equivalents(); n != 1 {
		t.Fatalf("size = %d", n)
	}
}
