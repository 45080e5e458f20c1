package bgp

import (
	"math/rand"
	"reflect"
	"testing"

	"spoofscope/internal/netx"
)

func sampleUpdate() *Update {
	return &Update{
		Withdrawn: []netx.Prefix{netx.MustParsePrefix("198.51.100.0/24")},
		Attrs: Attributes{
			Origin: OriginIGP,
			ASPath: []PathSegment{
				{Type: SegmentSequence, ASNs: []ASN{65001, 65002, 65003}},
			},
			NextHop:         netx.MustParseAddr("192.0.2.1"),
			MED:             77,
			HasMED:          true,
			Communities:     []uint32{65001<<16 | 100},
			AtomicAggregate: true,
			AggregatorAS:    4200000000,
			AggregatorAddr:  netx.MustParseAddr("192.0.2.254"),
			LargeCommunities: []LargeCommunity{
				{GlobalAdmin: 65001, LocalData1: 1, LocalData2: 2},
			},
		},
		NLRI: []netx.Prefix{
			netx.MustParsePrefix("203.0.113.0/24"),
			netx.MustParsePrefix("10.0.0.0/8"),
		},
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	u := sampleUpdate()
	b, err := u.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalUpdate(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(u, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", u, got)
	}
}

func randUpdate(rng *rand.Rand) *Update {
	u := &Update{}
	for i := rng.Intn(4); i > 0; i-- {
		u.Withdrawn = append(u.Withdrawn,
			netx.PrefixFrom(netx.Addr(rng.Uint32()), uint8(rng.Intn(25)+8)))
	}
	nNLRI := rng.Intn(5)
	if nNLRI > 0 {
		segs := rng.Intn(2) + 1
		for s := 0; s < segs; s++ {
			seg := PathSegment{Type: SegmentSequence}
			if s > 0 && rng.Intn(3) == 0 {
				seg.Type = SegmentSet
			}
			for i := rng.Intn(5) + 1; i > 0; i-- {
				seg.ASNs = append(seg.ASNs, ASN(rng.Uint32()))
			}
			u.Attrs.ASPath = append(u.Attrs.ASPath, seg)
		}
		u.Attrs.Origin = Origin(rng.Intn(3))
		u.Attrs.NextHop = netx.Addr(rng.Uint32())
		if rng.Intn(2) == 0 {
			u.Attrs.MED = rng.Uint32()
			u.Attrs.HasMED = true
		}
		for i := rng.Intn(3); i > 0; i-- {
			u.Attrs.Communities = append(u.Attrs.Communities, rng.Uint32())
		}
		if rng.Intn(3) == 0 {
			u.Attrs.AtomicAggregate = true
		}
		if rng.Intn(3) == 0 {
			u.Attrs.AggregatorAS = ASN(rng.Uint32() | 1) // nonzero
			u.Attrs.AggregatorAddr = netx.Addr(rng.Uint32())
		}
		for i := rng.Intn(2); i > 0; i-- {
			u.Attrs.LargeCommunities = append(u.Attrs.LargeCommunities,
				LargeCommunity{rng.Uint32(), rng.Uint32(), rng.Uint32()})
		}
		for i := 0; i < nNLRI; i++ {
			u.NLRI = append(u.NLRI,
				netx.PrefixFrom(netx.Addr(rng.Uint32()), uint8(rng.Intn(25)+8)))
		}
	}
	return u
}

func TestUpdateRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		u := randUpdate(rng)
		b, err := u.Marshal()
		if err != nil {
			t.Fatalf("Marshal(%+v): %v", u, err)
		}
		got, err := UnmarshalUpdate(b)
		if err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		if !reflect.DeepEqual(u, got) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", u, got)
		}
	}
}

func TestUpdateLongASPathExtendedLength(t *testing.T) {
	// >63 4-byte ASNs pushes the AS_PATH attribute past 255 bytes and forces
	// the extended-length encoding.
	seg := PathSegment{Type: SegmentSequence}
	for i := 0; i < 100; i++ {
		seg.ASNs = append(seg.ASNs, ASN(65000+i))
	}
	u := &Update{
		Attrs: Attributes{ASPath: []PathSegment{seg}, NextHop: 1},
		NLRI:  []netx.Prefix{netx.MustParsePrefix("192.0.2.0/24")},
	}
	b, err := u.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalUpdate(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(u, got) {
		t.Fatal("extended-length AS_PATH round trip failed")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	u := sampleUpdate()
	b, _ := u.Marshal()

	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"short", func(b []byte) []byte { return b[:10] }},
		{"bad marker", func(b []byte) []byte { b[0] = 0; return b }},
		{"bad type", func(b []byte) []byte { b[18] = 1; return b }},
		{"length mismatch", func(b []byte) []byte { b[17]++; return b }},
		{"truncated", func(b []byte) []byte {
			// Shorten the payload but keep the header length honest wrong.
			return b[:len(b)-3]
		}},
	} {
		bb := tc.mut(append([]byte(nil), b...))
		if _, err := UnmarshalUpdate(bb); err == nil {
			t.Errorf("%s: UnmarshalUpdate accepted corrupt input", tc.name)
		}
	}
}

func TestEmptyUpdateIsWithdrawOnly(t *testing.T) {
	u := &Update{Withdrawn: []netx.Prefix{netx.MustParsePrefix("10.0.0.0/8")}}
	b, err := u.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalUpdate(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.NLRI) != 0 || len(got.Withdrawn) != 1 {
		t.Fatalf("withdraw-only round trip: %+v", got)
	}
}
