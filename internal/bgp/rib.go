package bgp

import (
	"fmt"
	"io"
	"sort"

	"spoofscope/internal/netx"
)

// Announcement is one (prefix, AS path) observation digested from a table
// dump or an update stream. It is the unit the cone algorithms consume.
type Announcement struct {
	Prefix netx.Prefix
	Path   []ASN
	Origin ASN
}

// RIB accumulates routing state from MRT table dumps and update streams,
// mimicking how the paper builds its routed-prefix and AS-graph datasets:
// every announcement observed during the measurement window counts, and
// withdrawals do not erase history (the paper considers "all table dumps and
// update messages within our time period").
//
// Announcements for prefixes more specific than MaxBits or less specific
// than MinBits are disregarded, matching the paper's /8../24 sanity filter.
type RIB struct {
	// MinBits and MaxBits bound accepted prefix lengths, inclusive.
	// NewRIB sets the paper's defaults of 8 and 24.
	MinBits, MaxBits uint8

	// seen de-duplicates (prefix, path) pairs.
	seen map[string]struct{}

	anns     []Announcement
	prefixes map[netx.Prefix]ASN // prefix -> origin of most recent announcement
	dropped  int
	// withdrawn counts withdrawal messages digested. The paper's method
	// keeps every announcement of the window ("we consider all table dumps
	// and update messages within our time period"), so withdrawals never
	// remove history — but operators watching a live feed want the count.
	withdrawn int
}

// NewRIB returns an empty RIB with the paper's /8../24 prefix-length filter.
func NewRIB() *RIB {
	return &RIB{
		MinBits:  8,
		MaxBits:  24,
		seen:     make(map[string]struct{}),
		prefixes: make(map[netx.Prefix]ASN),
	}
}

// Dropped returns the number of announcements rejected by the length filter.
func (r *RIB) Dropped() int { return r.dropped }

// Withdrawn returns the number of withdrawal entries digested (withdrawals
// are counted but never erase window history; see the type comment).
func (r *RIB) Withdrawn() int { return r.withdrawn }

// AddAnnouncement records one (prefix, path) observation.
func (r *RIB) AddAnnouncement(p netx.Prefix, path []ASN) {
	if p.Bits < r.MinBits || p.Bits > r.MaxBits {
		r.dropped++
		return
	}
	if len(path) == 0 {
		return
	}
	key := announcementKey(p, path)
	origin := path[len(path)-1]
	r.prefixes[p] = origin
	if _, dup := r.seen[key]; dup {
		return
	}
	r.seen[key] = struct{}{}
	r.anns = append(r.anns, Announcement{
		Prefix: p,
		Path:   append([]ASN(nil), path...),
		Origin: origin,
	})
}

func announcementKey(p netx.Prefix, path []ASN) string {
	b := make([]byte, 0, 5+4*len(path))
	b = append(b, byte(p.Addr>>24), byte(p.Addr>>16), byte(p.Addr>>8), byte(p.Addr), p.Bits)
	for _, as := range path {
		b = append(b, byte(as>>24), byte(as>>16), byte(as>>8), byte(as))
	}
	return string(b)
}

// ApplyUpdate digests a BGP UPDATE: NLRI become announcements; withdrawals
// are counted but do not remove history.
func (r *RIB) ApplyUpdate(u *Update) {
	r.withdrawn += len(u.Withdrawn)
	path := dedupSequencePath(&u.Attrs)
	for _, p := range u.NLRI {
		r.AddAnnouncement(p, path)
	}
}

// dedupSequencePath flattens the AS path, collapsing prepending.
func dedupSequencePath(a *Attributes) []ASN {
	var out []ASN
	for _, seg := range a.ASPath {
		if seg.Type != SegmentSequence {
			continue
		}
		for _, as := range seg.ASNs {
			if len(out) == 0 || out[len(out)-1] != as {
				out = append(out, as)
			}
		}
	}
	return out
}

// ApplyRIBRecord digests a TABLE_DUMP_V2 RIB record.
func (r *RIB) ApplyRIBRecord(rec *RIBRecord) {
	for _, e := range rec.Entries {
		r.AddAnnouncement(rec.Prefix, dedupSequencePath(&e.Attrs))
	}
}

// LoadMRT reads an entire MRT stream into the RIB. BGP4MP records that fail
// BGP-level parsing abort the load with an error.
func (r *RIB) LoadMRT(rd io.Reader) error {
	mr := NewReader(rd)
	for {
		rec, err := mr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch {
		case rec.RIB != nil:
			r.ApplyRIBRecord(rec.RIB)
		case rec.BGP4MP != nil:
			u, err := UnmarshalUpdate(rec.BGP4MP.Message)
			if err != nil {
				return fmt.Errorf("bgp: BGP4MP payload: %w", err)
			}
			r.ApplyUpdate(u)
		}
	}
}

// Announcements returns all distinct (prefix, path) observations in
// insertion order. The slice must not be modified.
func (r *RIB) Announcements() []Announcement { return r.anns }

// NumPrefixes returns the number of distinct routed prefixes.
func (r *RIB) NumPrefixes() int { return len(r.prefixes) }

// Prefixes returns the distinct routed prefixes, sorted.
func (r *RIB) Prefixes() []netx.Prefix {
	out := make([]netx.Prefix, 0, len(r.prefixes))
	for p := range r.prefixes {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// RoutedSpace returns the union of all routed prefixes as an interval set.
func (r *RIB) RoutedSpace() netx.IntervalSet {
	return netx.IntervalSetOfPrefixes(r.Prefixes()...)
}

// OriginAssignments returns the MOAS-resolved prefix→origin assignment of
// OriginTable as parallel slices sorted by prefix — the shape
// netx.BuildFlatLPM consumes directly.
func (r *RIB) OriginAssignments() ([]netx.Prefix, []ASN) {
	// Count per-prefix origin popularity over distinct announcements.
	type key struct {
		p netx.Prefix
		o ASN
	}
	counts := make(map[key]int)
	for _, a := range r.anns {
		counts[key{a.Prefix, a.Origin}]++
	}
	best := make(map[netx.Prefix]ASN, len(r.prefixes))
	bestCount := make(map[netx.Prefix]int, len(r.prefixes))
	for k, c := range counts {
		// Break popularity ties toward the lower ASN for determinism.
		if c > bestCount[k.p] || (c == bestCount[k.p] && (best[k.p] == 0 || k.o < best[k.p])) {
			bestCount[k.p] = c
			best[k.p] = k.o
		}
	}
	ps := make([]netx.Prefix, 0, len(best))
	for p := range best {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) < 0 })
	origins := make([]ASN, len(ps))
	for i, p := range ps {
		origins[i] = best[p]
	}
	return ps, origins
}

// OriginTable builds a longest-prefix-match table mapping addresses to the
// origin AS of the most specific covering routed prefix. When a prefix was
// announced by several origins over the window (MOAS), the origin seen most
// often across distinct paths wins.
func (r *RIB) OriginTable() *netx.FlatLPM {
	ps, origins := r.OriginAssignments()
	vals := make([]uint32, len(origins))
	for i, o := range origins {
		vals[i] = uint32(o)
	}
	return netx.BuildFlatLPM(ps, vals)
}
