package netx

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func TestAddrRoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0", "255.255.255.255", "192.0.2.1", "10.0.0.1", "198.51.100.77"}
	for _, s := range cases {
		a, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", s, err)
		}
		if got := a.String(); got != s {
			t.Errorf("ParseAddr(%q).String() = %q", s, got)
		}
	}
}

func TestAddrRejectsIPv6(t *testing.T) {
	if _, err := ParseAddr("2001:db8::1"); err == nil {
		t.Fatal("ParseAddr accepted IPv6")
	}
	if _, ok := AddrFromNetip(netip.MustParseAddr("::1")); ok {
		t.Fatal("AddrFromNetip accepted IPv6")
	}
}

func TestAddrFromNetipUnmaps(t *testing.T) {
	a, ok := AddrFromNetip(netip.MustParseAddr("::ffff:192.0.2.9"))
	if !ok || a != MustParseAddr("192.0.2.9") {
		t.Fatalf("IPv4-mapped conversion failed: %v %v", a, ok)
	}
}

func TestAddrOctetsAndBins(t *testing.T) {
	a := AddrFrom4(203, 0, 113, 200)
	if a.String() != "203.0.113.200" {
		t.Fatalf("AddrFrom4 = %s", a)
	}
	if a.Slash8() != 203 {
		t.Fatalf("Slash8 = %d", a.Slash8())
	}
}

func TestPrefixMasking(t *testing.T) {
	p := PrefixFrom(MustParseAddr("192.0.2.77"), 24)
	if p.Addr != MustParseAddr("192.0.2.0") {
		t.Fatalf("host bits not zeroed: %v", p)
	}
	if !p.Contains(MustParseAddr("192.0.2.255")) {
		t.Error("Contains failed for last address")
	}
	if p.Contains(MustParseAddr("192.0.3.0")) {
		t.Error("Contains matched outside prefix")
	}
	if p.NumAddrs() != 256 {
		t.Errorf("NumAddrs = %d", p.NumAddrs())
	}
}

func TestPrefixEdgeLengths(t *testing.T) {
	all := PrefixFrom(0, 0)
	if all.NumAddrs() != 1<<32 {
		t.Errorf("/0 NumAddrs = %d", all.NumAddrs())
	}
	if !all.Contains(MustParseAddr("255.255.255.255")) {
		t.Error("/0 must contain everything")
	}
	host := MustParsePrefix("198.51.100.4/32")
	if host.NumAddrs() != 1 || host.First() != host.Last() {
		t.Errorf("/32 size wrong: %v", host)
	}
}

func TestPrefixCompare(t *testing.T) {
	ps := []Prefix{
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("10.0.0.0/16"),
		MustParsePrefix("10.0.1.0/24"),
		MustParsePrefix("192.0.2.0/24"),
	}
	for i := 0; i < len(ps); i++ {
		for j := 0; j < len(ps); j++ {
			got := ps[i].Compare(ps[j])
			switch {
			case i == j && got != 0:
				t.Errorf("Compare(%v,%v) = %d, want 0", ps[i], ps[j], got)
			case i < j && got >= 0:
				t.Errorf("Compare(%v,%v) = %d, want <0", ps[i], ps[j], got)
			case i > j && got <= 0:
				t.Errorf("Compare(%v,%v) = %d, want >0", ps[i], ps[j], got)
			}
		}
	}
}

func TestPrefixContainsMatchesInterval(t *testing.T) {
	// Property: Prefix.Contains agrees with the [First,Last] interval.
	f := func(addr uint32, bits uint8, probe uint32) bool {
		p := PrefixFrom(Addr(addr), bits%33)
		in := Addr(probe) >= p.First() && Addr(probe) <= p.Last()
		return p.Contains(Addr(probe)) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixStringRoundTrip(t *testing.T) {
	f := func(addr uint32, bits uint8) bool {
		p := PrefixFrom(Addr(addr), bits%33)
		q, err := ParsePrefix(p.String())
		return err == nil && p == q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
