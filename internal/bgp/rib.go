package bgp

import (
	"cmp"
	"fmt"
	"io"
	"slices"

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
//
// The RIB is one table of announcements. AddAnnouncement appends; the
// first read after an add sorts what was added by (prefix, origin, path),
// merges it into the table and drops repeats, and every read is a scan over
// that order. So the first read after an add writes, and a RIB that has
// been read once since its last add may be read from any number of
// goroutines at once.
type RIB struct {
	// MinBits and MaxBits bound accepted prefix lengths, inclusive.
	// NewRIB sets the paper's defaults of 8 and 24.
	MinBits, MaxBits uint8

	// anns[:sorted] is distinct and sorted by compareAnnouncements;
	// anns[sorted:] is the tail added since, in arrival order.
	anns    []Announcement
	sorted  int
	dropped int
	// withdrawn counts withdrawal messages digested. The paper's method
	// keeps every announcement of the window ("we consider all table dumps
	// and update messages within our time period"), so withdrawals never
	// remove history — but operators watching a live feed want the count.
	withdrawn int
}

// foldMin is the shortest unsorted tail AddAnnouncement folds into the
// sorted table. A tail is folded once it is also longer than the table, so
// a feed that repeats itself holds at most about foldMin more
// announcements than it has distinct ones, and folding costs O(log n)
// sorts of geometrically growing tails.
const foldMin = 1 << 12

// NewRIB returns an empty RIB with the paper's /8../24 prefix-length filter.
func NewRIB() *RIB {
	return &RIB{MinBits: 8, MaxBits: 24}
}

// Dropped returns the number of announcements rejected by the length filter.
func (r *RIB) Dropped() int { return r.dropped }

// Withdrawn returns the number of withdrawal entries digested (withdrawals
// are counted but never erase window history; see the type comment).
func (r *RIB) Withdrawn() int { return r.withdrawn }

// AddAnnouncement records one (prefix, path) observation. Paths are copied;
// an empty path is ignored.
func (r *RIB) AddAnnouncement(p netx.Prefix, path []ASN) {
	if p.Bits < r.MinBits || p.Bits > r.MaxBits {
		r.dropped++
		return
	}
	if len(path) == 0 {
		return
	}
	r.anns = append(r.anns, Announcement{
		Prefix: p,
		Path:   append([]ASN(nil), path...),
		Origin: path[len(path)-1],
	})
	if tail := len(r.anns) - r.sorted; tail > foldMin && tail > r.sorted {
		r.fold()
	}
}

// compareAnnouncements orders the table: by prefix, then origin, then path.
func compareAnnouncements(a, b Announcement) int {
	if c := a.Prefix.Compare(b.Prefix); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Origin, b.Origin); c != 0 {
		return c
	}
	return slices.Compare(a.Path, b.Path)
}

// fold sorts the unsorted tail and merges it into the sorted table,
// dropping repeats. The merge writes a fresh backing array, so a slice an
// earlier read returned never changes.
func (r *RIB) fold() {
	old, tail := r.anns[:r.sorted], r.anns[r.sorted:]
	slices.SortFunc(tail, compareAnnouncements)
	out := make([]Announcement, 0, len(r.anns))
	for len(old) > 0 || len(tail) > 0 {
		var a Announcement
		if len(tail) == 0 || len(old) > 0 && compareAnnouncements(old[0], tail[0]) <= 0 {
			a, old = old[0], old[1:]
		} else {
			a, tail = tail[0], tail[1:]
		}
		if n := len(out); n == 0 || compareAnnouncements(out[n-1], a) != 0 {
			out = append(out, a)
		}
	}
	r.anns, r.sorted = out, len(out)
}

// table returns the distinct announcements in table order, folding the
// tail in first if there is one.
func (r *RIB) table() []Announcement {
	if len(r.anns) > r.sorted {
		r.fold()
	}
	return r.anns[:r.sorted:r.sorted]
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

// Announcements returns the distinct (prefix, path) observations sorted by
// prefix, then origin, then path, whatever order they arrived in. The slice
// must not be modified.
func (r *RIB) Announcements() []Announcement { return r.table() }

// prefixRuns calls fn for each run of announcements of one prefix, in
// prefix order.
func (r *RIB) prefixRuns(fn func(run []Announcement)) {
	anns := r.table()
	for i := 0; i < len(anns); {
		j := i + 1
		for j < len(anns) && anns[j].Prefix == anns[i].Prefix {
			j++
		}
		fn(anns[i:j])
		i = j
	}
}

// NumPrefixes returns the number of distinct routed prefixes.
func (r *RIB) NumPrefixes() int {
	n := 0
	r.prefixRuns(func([]Announcement) { n++ })
	return n
}

// Prefixes returns the distinct routed prefixes, sorted.
func (r *RIB) Prefixes() []netx.Prefix {
	out := make([]netx.Prefix, 0, r.NumPrefixes())
	r.prefixRuns(func(run []Announcement) { out = append(out, run[0].Prefix) })
	return out
}

// RoutedSpace returns the union of all routed prefixes as an interval set.
func (r *RIB) RoutedSpace() netx.IntervalSet {
	return netx.IntervalSetOfPrefixes(r.Prefixes()...)
}

// OriginAssignments resolves each routed prefix to one origin, as parallel
// slices sorted by prefix — the shape netx.BuildFlatLPM consumes directly.
// When a prefix was announced by several origins over the window (MOAS),
// the origin seen on the most distinct paths wins, and a tie goes to the
// lower ASN, AS 0 included.
func (r *RIB) OriginAssignments() ([]netx.Prefix, []ASN) {
	n := r.NumPrefixes()
	ps, origins := make([]netx.Prefix, 0, n), make([]ASN, 0, n)
	r.prefixRuns(func(run []Announcement) {
		// The run is sorted by origin, so each origin is a sub-run whose
		// length is its number of distinct paths.
		best, bestLen := run[0].Origin, 0
		for i := 0; i < len(run); {
			j := i + 1
			for j < len(run) && run[j].Origin == run[i].Origin {
				j++
			}
			if j-i > bestLen {
				best, bestLen = run[i].Origin, j-i
			}
			i = j
		}
		ps = append(ps, run[0].Prefix)
		origins = append(origins, best)
	})
	return ps, origins
}
