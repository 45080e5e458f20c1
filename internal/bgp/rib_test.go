package bgp

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"spoofscope/internal/netx"
)

func TestRIBLengthFilter(t *testing.T) {
	r := NewRIB()
	r.AddAnnouncement(netx.MustParsePrefix("10.0.0.0/7"), []ASN{1})   // too short
	r.AddAnnouncement(netx.MustParsePrefix("10.0.0.0/25"), []ASN{1})  // too long
	r.AddAnnouncement(netx.MustParsePrefix("10.0.0.0/8"), []ASN{1})   // ok
	r.AddAnnouncement(netx.MustParsePrefix("192.0.2.0/24"), []ASN{2}) // ok
	if r.NumPrefixes() != 2 {
		t.Fatalf("NumPrefixes = %d", r.NumPrefixes())
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d", r.Dropped())
	}
}

func TestRIBDedup(t *testing.T) {
	r := NewRIB()
	p := netx.MustParsePrefix("203.0.113.0/24")
	r.AddAnnouncement(p, []ASN{1, 2, 3})
	r.AddAnnouncement(p, []ASN{1, 2, 3}) // dup
	r.AddAnnouncement(p, []ASN{1, 4, 3}) // new path
	if got := len(r.Announcements()); got != 2 {
		t.Fatalf("Announcements = %d", got)
	}
	if r.NumPrefixes() != 1 {
		t.Fatalf("NumPrefixes = %d", r.NumPrefixes())
	}
}

func TestRIBApplyUpdateCollapsesPrepend(t *testing.T) {
	r := NewRIB()
	u := &Update{
		Attrs: Attributes{ASPath: []PathSegment{
			{Type: SegmentSequence, ASNs: []ASN{5, 5, 5, 6, 7}},
		}},
		NLRI: []netx.Prefix{netx.MustParsePrefix("198.51.100.0/24")},
	}
	r.ApplyUpdate(u)
	anns := r.Announcements()
	if len(anns) != 1 {
		t.Fatalf("anns = %d", len(anns))
	}
	if len(anns[0].Path) != 3 || anns[0].Path[0] != 5 || anns[0].Origin != 7 {
		t.Fatalf("path = %v origin = %v", anns[0].Path, anns[0].Origin)
	}
}

// requireOrigins fails t unless r's OriginAssignments are exactly want, in
// prefix order.
func requireOrigins(t *testing.T, r *RIB, want map[string]ASN) {
	t.Helper()
	ps, origins := r.OriginAssignments()
	if len(ps) != len(want) {
		t.Fatalf("OriginAssignments = %v %v, want %v", ps, origins, want)
	}
	for i, p := range ps {
		if o, ok := want[p.String()]; !ok || origins[i] != o || i > 0 && ps[i-1].Compare(p) >= 0 {
			t.Fatalf("OriginAssignments = %v %v, want %v", ps, origins, want)
		}
	}
}

func TestRIBOriginTableMOAS(t *testing.T) {
	r := NewRIB()
	p := netx.MustParsePrefix("203.0.113.0/24")
	// Origin 9 seen on two distinct paths, origin 8 on one: 9 wins.
	r.AddAnnouncement(p, []ASN{1, 9})
	r.AddAnnouncement(p, []ASN{2, 9})
	r.AddAnnouncement(p, []ASN{3, 8})
	requireOrigins(t, r, map[string]ASN{"203.0.113.0/24": 9})
}

// TestRIBOriginTableMostSpecificWins: nested prefixes keep their own
// origins; picking the most specific one per address is netx.FlatLPM's
// part (TestFlatLPMProperty).
func TestRIBOriginTableMostSpecificWins(t *testing.T) {
	r := NewRIB()
	r.AddAnnouncement(netx.MustParsePrefix("10.1.0.0/16"), []ASN{1, 200})
	r.AddAnnouncement(netx.MustParsePrefix("10.0.0.0/8"), []ASN{1, 100})
	requireOrigins(t, r, map[string]ASN{"10.0.0.0/8": 100, "10.1.0.0/16": 200})
}

// TestOriginAssignmentsTieToLowerASN: a prefix whose origins AS 0 and AS 5
// each have one distinct path goes to AS 0, whatever the arrival order.
func TestOriginAssignmentsTieToLowerASN(t *testing.T) {
	p := netx.MustParsePrefix("203.0.113.0/24")
	for i := 0; i < 64; i++ {
		r := NewRIB()
		if i%2 == 0 {
			r.AddAnnouncement(p, []ASN{1, 0})
			r.AddAnnouncement(p, []ASN{2, 5})
		} else {
			r.AddAnnouncement(p, []ASN{2, 5})
			r.AddAnnouncement(p, []ASN{1, 0})
		}
		requireOrigins(t, r, map[string]ASN{"203.0.113.0/24": 0})
	}
}

func TestRIBRoutedSpace(t *testing.T) {
	r := NewRIB()
	r.AddAnnouncement(netx.MustParsePrefix("10.0.0.0/8"), []ASN{1})
	r.AddAnnouncement(netx.MustParsePrefix("10.1.0.0/16"), []ASN{2}) // nested
	r.AddAnnouncement(netx.MustParsePrefix("192.0.2.0/24"), []ASN{3})
	space := r.RoutedSpace()
	if space.NumAddrs() != 1<<24+256 {
		t.Fatalf("routed space = %d addrs", space.NumAddrs())
	}
	if !space.Contains(netx.MustParseAddr("10.200.0.1")) {
		t.Fatal("routed space missing covered address")
	}
	if space.Contains(netx.MustParseAddr("192.0.3.1")) {
		t.Fatal("routed space covers unannounced address")
	}
}

func TestRIBLoadMRTEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	// A table dump record plus an update stream record.
	w.WriteRIB(testTime, &RIBRecord{
		Prefix: netx.MustParsePrefix("203.0.113.0/24"),
		Entries: []RIBEntry{{
			PeerIndex:      0,
			OriginatedTime: testTime,
			Attrs: Attributes{
				ASPath:  []PathSegment{{Type: SegmentSequence, ASNs: []ASN{10, 20}}},
				NextHop: 1,
			},
		}},
	})
	w.WriteUpdate(testTime, 30, 65000, 1, 2, &Update{
		Attrs: Attributes{
			ASPath:  []PathSegment{{Type: SegmentSequence, ASNs: []ASN{30, 40}}},
			NextHop: 2,
		},
		NLRI: []netx.Prefix{netx.MustParsePrefix("198.51.100.0/24")},
	})
	w.Flush()

	r := NewRIB()
	if err := r.LoadMRT(&buf); err != nil {
		t.Fatal(err)
	}
	if r.NumPrefixes() != 2 {
		t.Fatalf("NumPrefixes = %d", r.NumPrefixes())
	}
	requireOrigins(t, r, map[string]ASN{"203.0.113.0/24": 20, "198.51.100.0/24": 40})
}

func TestRIBWithdrawalsCountedNotErased(t *testing.T) {
	r := NewRIB()
	p := netx.MustParsePrefix("203.0.113.0/24")
	r.ApplyUpdate(&Update{
		Attrs: Attributes{ASPath: []PathSegment{{Type: SegmentSequence, ASNs: []ASN{1, 2}}}},
		NLRI:  []netx.Prefix{p},
	})
	r.ApplyUpdate(&Update{Withdrawn: []netx.Prefix{p}})
	if r.Withdrawn() != 1 {
		t.Fatalf("Withdrawn = %d", r.Withdrawn())
	}
	// The paper's window semantics: the prefix stays routed.
	if r.NumPrefixes() != 1 {
		t.Fatalf("withdrawal erased window history: %d prefixes", r.NumPrefixes())
	}
	if !r.RoutedSpace().Contains(netx.MustParseAddr("203.0.113.9")) {
		t.Fatal("routed space lost the withdrawn prefix")
	}
}

// TestRIBRepeatsStayBounded: a feed that repeats two announcements 2^20
// times with no read in between holds a folded table, not 2^20 copies
// (≈50 MB unfolded; ≈0.2 MB folded).
func TestRIBRepeatsStayBounded(t *testing.T) {
	const bound = 2 << 20
	p, q := netx.MustParsePrefix("203.0.113.0/24"), netx.MustParsePrefix("198.51.100.0/24")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := NewRIB()
	for i := 0; i < 1<<20; i++ {
		if i%2 == 0 {
			r.AddAnnouncement(p, []ASN{1, 2})
		} else {
			r.AddAnnouncement(q, []ASN{3, 4})
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if held := int64(after.HeapAlloc) - int64(before.HeapAlloc); held > bound {
		t.Fatalf("the RIB retains %d bytes after 2^20 repeats; bound %d", held, bound)
	}
	if n := len(r.Announcements()); n != 2 {
		t.Fatalf("Announcements = %d, want 2", n)
	}
}

// TestRIBConcurrentReads: once read, a RIB may be read from several
// goroutines at once (the test matters under -race).
func TestRIBConcurrentReads(t *testing.T) {
	r := NewRIB()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3*foldMin; i++ {
		p := netx.PrefixFrom(netx.Addr(rng.Uint32()&0xffff00), uint8(16+rng.Intn(9)))
		r.AddAnnouncement(p, []ASN{ASN(rng.Intn(50)), ASN(rng.Intn(50))})
	}
	r.Announcements()
	type reading struct {
		anns     []Announcement
		n        int
		ps, ops  []netx.Prefix
		origins  []ASN
		space    netx.IntervalSet
		fp       Fingerprint
		dropped  int
		withdraw int
	}
	read := func() reading {
		var x reading
		x.anns, x.n, x.ps = r.Announcements(), r.NumPrefixes(), r.Prefixes()
		x.ops, x.origins = r.OriginAssignments()
		x.space, x.fp, x.dropped, x.withdraw = r.RoutedSpace(), r.Fingerprint(), r.Dropped(), r.Withdrawn()
		return x
	}
	want := read()
	got := make([]reading, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = read()
		}()
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("goroutine %d read a different RIB", g)
		}
	}
}
