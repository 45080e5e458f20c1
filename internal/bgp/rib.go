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
// that order. The merge also keeps the table's fingerprint and its count of
// distinct prefixes, hashing only the announcements it adds. So the first
// read after an add writes, and a RIB that has been read once since its
// last add may be read from any number of goroutines at once.
//
// The table's paths lie end to end in one hop slab, in table order: each
// announcement's Path is a capacity-limited subslice of it, and the
// announcements of one prefix form a run whose hops are one stretch of the
// slab. Hops returns the slab and where each run's hops end, so a walk over
// every (prefix, path AS) pair is one flat loop per run.
type RIB struct {
	// MinBits and MaxBits bound accepted prefix lengths, inclusive.
	// NewRIB sets the paper's defaults of 8 and 24.
	MinBits, MaxBits uint8

	// anns[:sorted] is distinct and sorted by compareAnnouncements;
	// anns[sorted:] is the tail added since, in arrival order.
	anns   []Announcement
	sorted int

	// fp and prefixes describe anns[:sorted]: its fingerprint and its
	// number of distinct prefixes.
	fp       Fingerprint
	prefixes int

	// hops is anns[:sorted]'s paths end to end, and ends[i] is where the
	// hops of its i-th prefix run end. tail is the slab the next added
	// path is copied onto; the paths of anns[sorted:] lie in it and in the
	// full slabs before it.
	hops, tail []ASN
	ends       []int

	// path is the scratch buffer ApplyRIBRecord and ApplyUpdate flatten
	// each AS path into; AddAnnouncement copies it into tail.
	path []ASN
}

// foldMin is the shortest unsorted tail AddAnnouncement folds into the
// sorted table. A tail is folded once it is also longer than the table, so
// a feed that repeats itself holds at most about foldMin more
// announcements than it has distinct ones, and folding costs O(log n)
// sorts of geometrically growing tails.
const foldMin = 1 << 12

// tailSlab caps a tail slab's size in hops; a longer path gets a slab of
// its own.
const tailSlab = 1 << 14

// NewRIB returns an empty RIB with the paper's /8../24 prefix-length filter.
func NewRIB() *RIB {
	return &RIB{MinBits: 8, MaxBits: 24}
}

// AddAnnouncement records one (prefix, path) observation. The path is
// copied onto the end of the current tail slab; the next fold lays the
// tail's paths out into the table's hop slab and drops the tail slabs. An
// empty path is ignored.
func (r *RIB) AddAnnouncement(p netx.Prefix, path []ASN) {
	if p.Bits < r.MinBits || p.Bits > r.MaxBits || len(path) == 0 {
		return
	}
	if len(r.tail)+len(path) > cap(r.tail) {
		// A full slab stays behind the paths already in it and the next
		// is twice as large, up to tailSlab hops: no slab is regrown by
		// copying.
		r.tail = make([]ASN, 0, max(len(path), min(max(2*cap(r.tail), 64), tailSlab)))
	}
	from := len(r.tail)
	r.tail = append(r.tail, path...)
	r.anns = append(r.anns, Announcement{
		Prefix: p,
		Path:   r.tail[from:len(r.tail):len(r.tail)],
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
// dropping repeats, then lays the merged table's paths end to end into a
// fresh hop slab and records where each prefix run's hops end. The merge
// and the layout write fresh backing arrays, so a slice an earlier read
// returned never changes. A table announcement goes out before an equal
// tail one, so the tail announcements the merge keeps are exactly the new
// ones: adding their hashes to the table's digests gives the merged table's
// (Digest's folds commute), and no table announcement is hashed again. The
// tail slabs are dropped, not kept for the next adds: a folded RIB holds
// its table and nothing more.
func (r *RIB) fold() {
	old, tail := r.anns[:r.sorted], r.anns[r.sorted:]
	slices.SortFunc(tail, compareAnnouncements)
	out := make([]Announcement, 0, len(r.anns))
	prefixes, nHops := 0, 0
	for len(old) > 0 || len(tail) > 0 {
		var a Announcement
		fromTail := len(tail) > 0 && (len(old) == 0 || compareAnnouncements(old[0], tail[0]) > 0)
		if fromTail {
			a, tail = tail[0], tail[1:]
		} else {
			a, old = old[0], old[1:]
		}
		if n := len(out); n > 0 && out[n-1].Prefix == a.Prefix {
			if compareAnnouncements(out[n-1], a) == 0 {
				continue
			}
		} else {
			prefixes++
		}
		out = append(out, a)
		nHops += len(a.Path)
		if fromTail {
			r.fp.add(&a)
		}
	}
	hops, ends := make([]ASN, 0, nHops), make([]int, 0, prefixes)
	for i := range out {
		a := &out[i]
		from := len(hops)
		hops = append(hops, a.Path...)
		a.Path = hops[from:len(hops):len(hops)]
		if i+1 == len(out) || out[i+1].Prefix != a.Prefix {
			ends = append(ends, len(hops))
		}
	}
	r.anns, r.sorted, r.prefixes = out, len(out), prefixes
	r.hops, r.ends, r.tail = hops, ends, nil
}

// table returns the distinct announcements in table order, folding the
// tail in first if there is one.
func (r *RIB) table() []Announcement {
	if len(r.anns) > r.sorted {
		r.fold()
	}
	return r.anns[:r.sorted:r.sorted]
}

// ApplyUpdate digests a BGP UPDATE: NLRI become announcements, and
// withdrawals are ignored. The paper's method keeps every announcement of
// the window ("we consider all table dumps and update messages within our
// time period"), so a withdrawal never removes history.
func (r *RIB) ApplyUpdate(u *Update) {
	r.path = appendSequencePath(r.path[:0], &u.Attrs)
	for _, p := range u.NLRI {
		r.AddAnnouncement(p, r.path)
	}
}

// appendSequencePath appends the flattened AS path to out, collapsing
// prepending, and returns the extended slice.
func appendSequencePath(out []ASN, a *Attributes) []ASN {
	base := len(out)
	for _, seg := range a.ASPath {
		if seg.Type != SegmentSequence {
			continue
		}
		for _, as := range seg.ASNs {
			if len(out) == base || out[len(out)-1] != as {
				out = append(out, as)
			}
		}
	}
	return out
}

// ApplyRIBRecord digests a TABLE_DUMP_V2 RIB record.
func (r *RIB) ApplyRIBRecord(rec *RIBRecord) {
	for _, e := range rec.Entries {
		r.path = appendSequencePath(r.path[:0], &e.Attrs)
		r.AddAnnouncement(rec.Prefix, r.path)
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

// Hops returns the paths of Announcements laid end to end, in table order,
// and where each prefix run's hops end: run i (prefix i of
// OriginAssignments) has the hops hops[ends[i-1]:ends[i]], from 0 for run
// 0. Every announcement's Path is a subslice of hops. Neither slice may be
// modified.
func (r *RIB) Hops() (hops []ASN, ends []int) {
	r.table()
	return r.hops, r.ends
}

// NumPrefixes returns the number of distinct routed prefixes.
func (r *RIB) NumPrefixes() int {
	r.table()
	return r.prefixes
}

// OriginAssignments resolves each routed prefix to one origin, as parallel
// slices sorted by prefix — the shape netx.BuildFlatLPM consumes directly.
// When a prefix was announced by several origins over the window (MOAS),
// the origin seen on the most distinct paths wins, and a tie goes to the
// lower ASN, AS 0 included. The prefixes are the table's runs: prefix i is
// the i-th run of Announcements.
func (r *RIB) OriginAssignments() ([]netx.Prefix, []ASN) {
	anns := r.table()
	ps, origins := make([]netx.Prefix, 0, r.prefixes), make([]ASN, 0, r.prefixes)
	for i := 0; i < len(anns); {
		// The run is sorted by origin, so each origin is a sub-run whose
		// length is its number of distinct paths.
		p := anns[i].Prefix
		best, bestLen := anns[i].Origin, 0
		for i < len(anns) && anns[i].Prefix == p {
			j := i + 1
			for j < len(anns) && anns[j].Prefix == p && anns[j].Origin == anns[i].Origin {
				j++
			}
			if j-i > bestLen {
				best, bestLen = anns[i].Origin, j-i
			}
			i = j
		}
		ps = append(ps, p)
		origins = append(origins, best)
	}
	return ps, origins
}
