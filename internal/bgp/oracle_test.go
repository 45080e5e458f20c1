package bgp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"spoofscope/internal/netx"
)

// The decoders below are the hand-bounds-checked ones the netx.Cursor
// decoders replaced, kept verbatim but for their names as the oracle
// FuzzUnmarshalUpdate, FuzzMRT and FuzzSession hold the production decoders
// to: the same inputs accepted and refused, the same values decoded.
// oracleNext is Reader.Next with the oracle record decoders, and
// oracleParseOpen is Session.parseOpen.

// oracleDecodePrefix decodes one NLRI prefix, returning the bytes consumed.
func oracleDecodePrefix(b []byte) (netx.Prefix, int, error) {
	if len(b) < 1 {
		return netx.Prefix{}, 0, errors.New("bgp: truncated prefix")
	}
	bits := b[0]
	if bits > 32 {
		return netx.Prefix{}, 0, fmt.Errorf("bgp: invalid prefix length %d", bits)
	}
	n := (int(bits) + 7) / 8
	if len(b) < 1+n {
		return netx.Prefix{}, 0, errors.New("bgp: truncated prefix body")
	}
	var addr uint32
	for i := 0; i < n; i++ {
		addr |= uint32(b[1+i]) << (24 - 8*i)
	}
	return netx.PrefixFrom(netx.Addr(addr), bits), 1 + n, nil
}

// oracleDecodeAttrs parses a path attribute block.
func oracleDecodeAttrs(b []byte) (Attributes, error) {
	var a Attributes
	for len(b) > 0 {
		if len(b) < 3 {
			return a, errors.New("bgp: truncated attribute header")
		}
		flags, typ := b[0], b[1]
		var alen, hdr int
		if flags&0x10 != 0 { // extended length
			if len(b) < 4 {
				return a, errors.New("bgp: truncated extended attribute")
			}
			alen, hdr = int(binary.BigEndian.Uint16(b[2:4])), 4
		} else {
			alen, hdr = int(b[2]), 3
		}
		if len(b) < hdr+alen {
			return a, errors.New("bgp: truncated attribute body")
		}
		body := b[hdr : hdr+alen]
		switch typ {
		case attrOrigin:
			if alen != 1 {
				return a, errors.New("bgp: bad ORIGIN length")
			}
			a.Origin = Origin(body[0])
		case attrASPath:
			for len(body) > 0 {
				if len(body) < 2 {
					return a, errors.New("bgp: truncated AS_PATH segment")
				}
				segType, n := body[0], int(body[1])
				if segType != SegmentSet && segType != SegmentSequence {
					return a, fmt.Errorf("bgp: bad AS_PATH segment type %d", segType)
				}
				if len(body) < 2+4*n {
					return a, errors.New("bgp: truncated AS_PATH ASNs")
				}
				seg := PathSegment{Type: segType, ASNs: make([]ASN, n)}
				for i := 0; i < n; i++ {
					seg.ASNs[i] = ASN(binary.BigEndian.Uint32(body[2+4*i:]))
				}
				a.ASPath = append(a.ASPath, seg)
				body = body[2+4*n:]
			}
		case attrNextHop:
			if alen != 4 {
				return a, errors.New("bgp: bad NEXT_HOP length")
			}
			a.NextHop = netx.Addr(binary.BigEndian.Uint32(body))
		case attrMED:
			if alen != 4 {
				return a, errors.New("bgp: bad MED length")
			}
			a.MED = binary.BigEndian.Uint32(body)
			a.HasMED = true
		case attrAtomicAggregate:
			if alen != 0 {
				return a, errors.New("bgp: bad ATOMIC_AGGREGATE length")
			}
			a.AtomicAggregate = true
		case attrAggregator:
			if alen != 8 {
				return a, errors.New("bgp: bad AGGREGATOR length (want AS4 form)")
			}
			a.AggregatorAS = ASN(binary.BigEndian.Uint32(body))
			a.AggregatorAddr = netx.Addr(binary.BigEndian.Uint32(body[4:]))
		case attrCommunities:
			if alen%4 != 0 {
				return a, errors.New("bgp: bad COMMUNITIES length")
			}
			for i := 0; i < alen; i += 4 {
				a.Communities = append(a.Communities, binary.BigEndian.Uint32(body[i:]))
			}
		case attrLargeCommunities:
			if alen%12 != 0 {
				return a, errors.New("bgp: bad LARGE_COMMUNITY length")
			}
			for i := 0; i < alen; i += 12 {
				a.LargeCommunities = append(a.LargeCommunities, LargeCommunity{
					GlobalAdmin: binary.BigEndian.Uint32(body[i:]),
					LocalData1:  binary.BigEndian.Uint32(body[i+4:]),
					LocalData2:  binary.BigEndian.Uint32(body[i+8:]),
				})
			}
		default:
			// Unknown attributes are skipped (transitive bit preserved by
			// real routers; a measurement parser just ignores them).
		}
		b = b[hdr+alen:]
	}
	return a, nil
}

// oracleUnmarshalUpdate parses a full BGP message, which must be an UPDATE.
func oracleUnmarshalUpdate(b []byte) (*Update, error) {
	if len(b) < headerLen {
		return nil, errors.New("bgp: truncated header")
	}
	for i := 0; i < 16; i++ {
		if b[i] != 0xff {
			return nil, errors.New("bgp: bad marker")
		}
	}
	total := int(binary.BigEndian.Uint16(b[16:18]))
	if total != len(b) {
		return nil, fmt.Errorf("bgp: length mismatch: header says %d, have %d", total, len(b))
	}
	if b[18] != msgTypeUpdate {
		return nil, fmt.Errorf("bgp: not an UPDATE (type %d)", b[18])
	}
	body := b[headerLen:]
	if len(body) < 2 {
		return nil, errors.New("bgp: truncated withdrawn length")
	}
	wlen := int(binary.BigEndian.Uint16(body))
	body = body[2:]
	if len(body) < wlen {
		return nil, errors.New("bgp: truncated withdrawn routes")
	}
	u := &Update{}
	w := body[:wlen]
	for len(w) > 0 {
		p, n, err := oracleDecodePrefix(w)
		if err != nil {
			return nil, err
		}
		u.Withdrawn = append(u.Withdrawn, p)
		w = w[n:]
	}
	body = body[wlen:]
	if len(body) < 2 {
		return nil, errors.New("bgp: truncated attribute length")
	}
	alen := int(binary.BigEndian.Uint16(body))
	body = body[2:]
	if len(body) < alen {
		return nil, errors.New("bgp: truncated attributes")
	}
	if alen > 0 {
		attrs, err := oracleDecodeAttrs(body[:alen])
		if err != nil {
			return nil, err
		}
		u.Attrs = attrs
	}
	body = body[alen:]
	for len(body) > 0 {
		p, n, err := oracleDecodePrefix(body)
		if err != nil {
			return nil, err
		}
		u.NLRI = append(u.NLRI, p)
		body = body[n:]
	}
	return u, nil
}

// oracleNext returns the next record, or io.EOF at end of stream. Records of
// unknown type are skipped transparently.
func oracleNext(r *Reader) (*Record, error) {
	for {
		var hdr [12]byte
		if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
		ts := time.Unix(int64(binary.BigEndian.Uint32(hdr[0:])), 0).UTC()
		typ := binary.BigEndian.Uint16(hdr[4:])
		sub := binary.BigEndian.Uint16(hdr[6:])
		blen := binary.BigEndian.Uint32(hdr[8:])
		// Sanity-cap the body before allocating: a corrupt length field
		// must not make the reader allocate gigabytes. Real MRT records
		// are tiny; RIB records with thousands of entries stay far below
		// this bound.
		const maxRecordLen = 16 << 20
		if blen > maxRecordLen {
			return nil, fmt.Errorf("bgp: MRT record length %d exceeds sanity cap", blen)
		}
		body := make([]byte, blen)
		if _, err := io.ReadFull(r.r, body); err != nil {
			return nil, fmt.Errorf("bgp: truncated MRT body: %w", err)
		}
		rec := &Record{Timestamp: ts}
		switch {
		case typ == mrtTypeTableDumpV2 && sub == subPeerIndexTable:
			t, err := oracleDecodePeerIndexTable(body)
			if err != nil {
				return nil, err
			}
			rec.PeerIndex = t
		case typ == mrtTypeTableDumpV2 && sub == subRIBIPv4Unicast:
			rr, err := oracleDecodeRIBRecord(body)
			if err != nil {
				return nil, err
			}
			rec.RIB = rr
		case typ == mrtTypeBGP4MP && sub == subBGP4MPMessageAS4:
			m, err := oracleDecodeBGP4MP(body)
			if err != nil {
				return nil, err
			}
			rec.BGP4MP = m
		default:
			continue // skip unknown record types
		}
		return rec, nil
	}
}

func oracleDecodePeerIndexTable(b []byte) (*PeerIndexTable, error) {
	if len(b) < 8 {
		return nil, errors.New("bgp: truncated PEER_INDEX_TABLE")
	}
	t := &PeerIndexTable{CollectorID: netx.Addr(binary.BigEndian.Uint32(b))}
	nameLen := int(binary.BigEndian.Uint16(b[4:]))
	b = b[6:]
	if len(b) < nameLen+2 {
		return nil, errors.New("bgp: truncated view name")
	}
	t.ViewName = string(b[:nameLen])
	b = b[nameLen:]
	count := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	for i := 0; i < count; i++ {
		if len(b) < 1 {
			return nil, errors.New("bgp: truncated peer entry")
		}
		pt := b[0]
		if pt&0x01 != 0 {
			return nil, errors.New("bgp: IPv6 peers unsupported")
		}
		asLen := 2
		if pt&0x02 != 0 {
			asLen = 4
		}
		need := 1 + 4 + 4 + asLen
		if len(b) < need {
			return nil, errors.New("bgp: truncated peer entry body")
		}
		p := Peer{
			BGPID: netx.Addr(binary.BigEndian.Uint32(b[1:])),
			Addr:  netx.Addr(binary.BigEndian.Uint32(b[5:])),
		}
		if asLen == 4 {
			p.AS = ASN(binary.BigEndian.Uint32(b[9:]))
		} else {
			p.AS = ASN(binary.BigEndian.Uint16(b[9:]))
		}
		t.Peers = append(t.Peers, p)
		b = b[need:]
	}
	return t, nil
}

func oracleDecodeRIBRecord(b []byte) (*RIBRecord, error) {
	if len(b) < 5 {
		return nil, errors.New("bgp: truncated RIB record")
	}
	r := &RIBRecord{Sequence: binary.BigEndian.Uint32(b)}
	b = b[4:]
	p, n, err := oracleDecodePrefix(b)
	if err != nil {
		return nil, err
	}
	r.Prefix = p
	b = b[n:]
	if len(b) < 2 {
		return nil, errors.New("bgp: truncated RIB entry count")
	}
	count := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	for i := 0; i < count; i++ {
		if len(b) < 8 {
			return nil, errors.New("bgp: truncated RIB entry")
		}
		e := RIBEntry{
			PeerIndex:      binary.BigEndian.Uint16(b),
			OriginatedTime: time.Unix(int64(binary.BigEndian.Uint32(b[2:])), 0).UTC(),
		}
		alen := int(binary.BigEndian.Uint16(b[6:]))
		b = b[8:]
		if len(b) < alen {
			return nil, errors.New("bgp: truncated RIB entry attributes")
		}
		attrs, err := oracleDecodeAttrs(b[:alen])
		if err != nil {
			return nil, err
		}
		e.Attrs = attrs
		r.Entries = append(r.Entries, e)
		b = b[alen:]
	}
	return r, nil
}

func oracleDecodeBGP4MP(b []byte) (*BGP4MPMessage, error) {
	if len(b) < 20 {
		return nil, errors.New("bgp: truncated BGP4MP record")
	}
	afi := binary.BigEndian.Uint16(b[10:])
	if afi != 1 {
		return nil, fmt.Errorf("bgp: BGP4MP AFI %d unsupported", afi)
	}
	m := &BGP4MPMessage{
		PeerAS:         ASN(binary.BigEndian.Uint32(b)),
		LocalAS:        ASN(binary.BigEndian.Uint32(b[4:])),
		InterfaceIndex: binary.BigEndian.Uint16(b[8:]),
		PeerIP:         netx.Addr(binary.BigEndian.Uint32(b[12:])),
		LocalIP:        netx.Addr(binary.BigEndian.Uint32(b[16:])),
		Message:        append([]byte(nil), b[20:]...),
	}
	return m, nil
}

func oracleParseOpen(s *Session, b []byte) error {
	if len(b) < 10 {
		return errors.New("bgp: truncated OPEN")
	}
	if b[0] != 4 {
		return fmt.Errorf("bgp: unsupported BGP version %d", b[0])
	}
	s.peerAS = ASN(binary.BigEndian.Uint16(b[1:3]))
	// RFC 4271 §4.2: the session's hold time is the smaller of the two
	// proposals; compare on the wire values so both sides agree exactly.
	peerHold := time.Duration(binary.BigEndian.Uint16(b[3:5])) * time.Second
	s.holdTime = min(time.Duration(s.cfg.wireHoldTime())*time.Second, peerHold)
	s.peerID = netx.Addr(binary.BigEndian.Uint32(b[5:9]))
	optLen := int(b[9])
	if len(b) < 10+optLen {
		return errors.New("bgp: truncated OPEN optional parameters")
	}
	params := b[10 : 10+optLen]
	for len(params) >= 2 {
		ptype, plen := params[0], int(params[1])
		if len(params) < 2+plen {
			return errors.New("bgp: truncated OPEN parameter")
		}
		if ptype == 2 { // capabilities
			caps := params[2 : 2+plen]
			for len(caps) >= 2 {
				code, clen := caps[0], int(caps[1])
				if len(caps) < 2+clen {
					return errors.New("bgp: truncated capability")
				}
				if code == 65 && clen == 4 {
					s.peerAS = ASN(binary.BigEndian.Uint32(caps[2:6]))
				}
				caps = caps[2+clen:]
			}
		}
		params = params[2+plen:]
	}
	return nil
}

// oracleRIB is RIB as it was before it became one sorted table: a seen map
// keyed by a string built per announcement, a prefix map, and the distinct
// announcements in arrival order. AddAnnouncement, announcementKey,
// Prefixes, OriginAssignments and Fingerprint are kept verbatim as the
// oracle TestRIBMatchesOracle and FuzzMRT hold the RIB to, with one edit:
// OriginAssignments no longer takes best[k.p] == 0 to mean "no origin yet".
// That sentinel let map order decide a tie between AS 0 and another origin,
// against the rule that a tie goes to the lower ASN.
type oracleRIB struct {
	MinBits, MaxBits uint8

	seen     map[string]struct{}
	anns     []Announcement
	prefixes map[netx.Prefix]ASN
	dropped  int
}

func newOracleRIB() *oracleRIB {
	return &oracleRIB{
		MinBits:  8,
		MaxBits:  24,
		seen:     make(map[string]struct{}),
		prefixes: make(map[netx.Prefix]ASN),
	}
}

func (r *oracleRIB) AddAnnouncement(p netx.Prefix, path []ASN) {
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

// ApplyUpdate and ApplyRIBRecord are copies of RIB's, which read paths
// through dedupSequencePath.
func (r *oracleRIB) ApplyUpdate(u *Update) {
	path := dedupSequencePath(&u.Attrs)
	for _, p := range u.NLRI {
		r.AddAnnouncement(p, path)
	}
}

func (r *oracleRIB) ApplyRIBRecord(rec *RIBRecord) {
	for _, e := range rec.Entries {
		r.AddAnnouncement(rec.Prefix, dedupSequencePath(&e.Attrs))
	}
}

func (r *oracleRIB) Prefixes() []netx.Prefix {
	out := make([]netx.Prefix, 0, len(r.prefixes))
	for p := range r.prefixes {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

func (r *oracleRIB) OriginAssignments() ([]netx.Prefix, []ASN) {
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
		if c > bestCount[k.p] || (c == bestCount[k.p] && k.o < best[k.p]) {
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

func (r *oracleRIB) Fingerprint() Fingerprint {
	var f Fingerprint
	for i := range r.anns {
		a := &r.anns[i]
		hp := uint64(fnvOffset)
		for _, as := range a.Path {
			hp = fnvU32(hp, uint32(as))
		}
		f.Paths.add(hp)
		ha := fnvU32(hp, uint32(a.Prefix.Addr))
		ha = (ha ^ uint64(a.Prefix.Bits)) * fnvPrime
		f.Anns.add(ha)
	}
	return f
}

// requireRIBAgrees fails t unless r reads as the oracle o does: the same
// Dropped, NumPrefixes, Prefixes, OriginAssignments and Fingerprint, and
// the oracle's announcements as a set, strictly increasing in (prefix,
// origin, path).
func requireRIBAgrees(t *testing.T, label string, r *RIB, o *oracleRIB) {
	t.Helper()
	if r.Dropped() != o.dropped || r.NumPrefixes() != len(o.prefixes) {
		t.Fatalf("%s: Dropped %d, NumPrefixes %d; the oracle's %d, %d", label, r.Dropped(), r.NumPrefixes(), o.dropped, len(o.prefixes))
	}
	if got, want := r.Prefixes(), o.Prefixes(); !slices.Equal(got, want) {
		t.Fatalf("%s: Prefixes %v; the oracle's %v", label, got, want)
	}
	ps, origins := r.OriginAssignments()
	ops, oorigins := o.OriginAssignments()
	if !slices.Equal(ps, ops) || !slices.Equal(origins, oorigins) {
		t.Fatalf("%s: OriginAssignments %v %v; the oracle's %v %v", label, ps, origins, ops, oorigins)
	}
	if got, want := r.Fingerprint(), o.Fingerprint(); got != want {
		t.Fatalf("%s: Fingerprint %+v; the oracle's %+v", label, got, want)
	}
	anns := r.Announcements()
	if len(anns) != len(o.anns) {
		t.Fatalf("%s: %d announcements; the oracle has %d", label, len(anns), len(o.anns))
	}
	for i, a := range anns {
		if _, ok := o.seen[announcementKey(a.Prefix, a.Path)]; !ok || a.Origin != a.Path[len(a.Path)-1] {
			t.Fatalf("%s: announcement %+v is not the oracle's", label, a)
		}
		if i > 0 && !annLess(anns[i-1], a) {
			t.Fatalf("%s: announcements %d and %d out of (prefix, origin, path) order: %+v, %+v", label, i-1, i, anns[i-1], a)
		}
	}
}

func annLess(a, b Announcement) bool {
	if a.Prefix != b.Prefix {
		return a.Prefix.Compare(b.Prefix) < 0
	}
	if a.Origin != b.Origin {
		return a.Origin < b.Origin
	}
	return slices.Compare(a.Path, b.Path) < 0
}

// RequireRIBMatchesOracle fails t unless a RIB fed the observations obs
// (their Prefix and Path; Origin is ignored) reads as the oracle fed them
// does, and a RIB fed them shuffled, with a read at a random point, returns
// identical Announcements. It is exported for the external test package,
// which can build a scenario: scenario imports bgp, so bgp's own tests
// cannot.
func RequireRIBMatchesOracle(t *testing.T, label string, obs []Announcement, rng *rand.Rand) {
	t.Helper()
	r, o := NewRIB(), newOracleRIB()
	for _, a := range obs {
		r.AddAnnouncement(a.Prefix, a.Path)
		o.AddAnnouncement(a.Prefix, a.Path)
	}
	requireRIBAgrees(t, label, r, o)

	shuffled := slices.Clone(obs)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	s, mid := NewRIB(), rng.Intn(len(obs)+1)
	for i, a := range shuffled {
		if i == mid {
			s.Announcements()
		}
		s.AddAnnouncement(a.Prefix, a.Path)
	}
	if !reflect.DeepEqual(s.Announcements(), r.Announcements()) {
		t.Fatalf("%s: shuffling the arrival order changed Announcements", label)
	}
}

// RequireMRTMatchesOracle fails t unless LoadMRT's RIB reads as the oracle
// fed mrt's records does, and RequireRIBMatchesOracle holds for the
// oracle's announcements. Exported for the same reason.
func RequireMRTMatchesOracle(t *testing.T, label string, mrt []byte, rng *rand.Rand) {
	t.Helper()
	r, o := NewRIB(), newOracleRIB()
	if err := r.LoadMRT(bytes.NewReader(mrt)); err != nil {
		t.Fatal(err)
	}
	rd := NewReader(bytes.NewReader(mrt))
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case rec.RIB != nil:
			o.ApplyRIBRecord(rec.RIB)
		case rec.BGP4MP != nil:
			u, err := UnmarshalUpdate(rec.BGP4MP.Message)
			if err != nil {
				t.Fatal(err)
			}
			o.ApplyUpdate(u)
		}
	}
	requireRIBAgrees(t, label, r, o)
	RequireRIBMatchesOracle(t, label, o.anns, rng)
}
