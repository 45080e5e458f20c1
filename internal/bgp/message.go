// Package bgp implements the subset of the BGP-4 (RFC 4271) and MRT
// (RFC 6396) wire formats needed to reproduce the paper's routing pipeline:
// UPDATE messages with 4-byte AS paths, TABLE_DUMP_V2 RIB snapshots,
// BGP4MP update streams, and a RIB that digests both into the
// (prefix, AS path) pairs the cone-inference algorithms consume.
//
// Everything is encoded from scratch with encoding/binary and decoded
// through netx.Cursor, the repository's one first-error-latching decode
// cursor, so no decoder bounds-checks by hand; the encoder and decoder are
// exact inverses and are property-tested as such. Reader.Next and the
// session's readMessage read their frames from a stream with io.ReadFull.
package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"spoofscope/internal/netx"
)

// ASN is a 4-byte autonomous system number.
type ASN uint32

func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// Origin is the BGP ORIGIN path attribute value.
type Origin uint8

// Origin codes per RFC 4271 §4.3.
const (
	OriginIGP        Origin = 0
	OriginEGP        Origin = 1
	OriginIncomplete Origin = 2
)

// Path attribute type codes.
const (
	attrOrigin           = 1
	attrASPath           = 2
	attrNextHop          = 3
	attrMED              = 4
	attrAtomicAggregate  = 6
	attrAggregator       = 7
	attrCommunities      = 8
	attrLargeCommunities = 32
)

// AS_PATH segment types per RFC 4271 §4.3.
const (
	SegmentSet      = 1
	SegmentSequence = 2
)

// Message type codes.
const (
	msgTypeUpdate = 2
)

const (
	headerLen = 19
	maxMsgLen = 4096
)

// PathSegment is one AS_PATH segment.
type PathSegment struct {
	Type uint8 // SegmentSet or SegmentSequence
	ASNs []ASN
}

// LargeCommunity is an RFC 8092 large community (three 4-byte parts).
type LargeCommunity struct {
	GlobalAdmin uint32
	LocalData1  uint32
	LocalData2  uint32
}

// Attributes carries the decoded path attributes of an UPDATE.
type Attributes struct {
	Origin      Origin
	ASPath      []PathSegment
	NextHop     netx.Addr
	MED         uint32
	HasMED      bool
	Communities []uint32
	// AtomicAggregate marks route aggregation with path information loss.
	AtomicAggregate bool
	// Aggregator identifies the aggregating AS and router (RFC 6793
	// 4-byte-AS form); AggregatorAS == 0 means absent.
	AggregatorAS   ASN
	AggregatorAddr netx.Addr
	// LargeCommunities carries RFC 8092 communities.
	LargeCommunities []LargeCommunity
}

// Path flattens the AS_PATH into a plain AS sequence. AS_SET members are
// appended in order but callers that derive adjacency (the AS graph) should
// use SequencePairs, which skips pairs involving sets, matching common
// measurement practice.
func (a *Attributes) Path() []ASN {
	var out []ASN
	for _, seg := range a.ASPath {
		out = append(out, seg.ASNs...)
	}
	return out
}

// OriginAS returns the rightmost AS of the path (the announcing origin).
// ok is false for empty paths or paths ending in an AS_SET of length != 1.
func (a *Attributes) OriginAS() (ASN, bool) {
	if len(a.ASPath) == 0 {
		return 0, false
	}
	last := a.ASPath[len(a.ASPath)-1]
	if len(last.ASNs) == 0 {
		return 0, false
	}
	if last.Type == SegmentSet && len(last.ASNs) != 1 {
		return 0, false
	}
	return last.ASNs[len(last.ASNs)-1], true
}

// SequencePairs calls fn for every adjacent (left, right) AS pair that occurs
// inside AS_SEQUENCE segments, with prepending collapsed (identical
// neighbours are skipped). Pairs spanning or inside AS_SETs are not emitted.
func (a *Attributes) SequencePairs(fn func(left, right ASN)) {
	for _, seg := range a.ASPath {
		if seg.Type != SegmentSequence {
			continue
		}
		for i := 1; i < len(seg.ASNs); i++ {
			if seg.ASNs[i-1] != seg.ASNs[i] {
				fn(seg.ASNs[i-1], seg.ASNs[i])
			}
		}
	}
}

// Update is a BGP UPDATE message (4-byte-AS encoding).
type Update struct {
	Withdrawn []netx.Prefix
	Attrs     Attributes
	NLRI      []netx.Prefix
}

// --- encoding ---

// appendPrefix encodes an NLRI prefix: length byte plus the minimal number
// of address octets.
func appendPrefix(b []byte, p netx.Prefix) []byte {
	b = append(b, p.Bits)
	n := (int(p.Bits) + 7) / 8
	addr := uint32(p.Addr)
	for i := 0; i < n; i++ {
		b = append(b, byte(addr>>(24-8*i)))
	}
	return b
}

// decodePrefix reads one NLRI prefix: a length byte, then the minimal number
// of address octets.
func decodePrefix(c *netx.Cursor) netx.Prefix {
	bits := c.U8()
	if bits > 32 {
		c.Fail(fmt.Errorf("invalid prefix length %d", bits))
		return netx.Prefix{}
	}
	var addr uint32
	for i, o := range c.Take((int(bits) + 7) / 8) {
		addr |= uint32(o) << (24 - 8*i)
	}
	return netx.PrefixFrom(netx.Addr(addr), bits)
}

// decodePrefixes reads NLRI prefixes to the end of c.
func decodePrefixes(c netx.Cursor) ([]netx.Prefix, error) {
	var out []netx.Prefix
	for c.Err() == nil && c.Len() > 0 {
		if p := decodePrefix(&c); c.Err() == nil {
			out = append(out, p)
		}
	}
	return out, c.Err()
}

// encodeAttrs serializes the path attributes.
func encodeAttrs(a *Attributes) []byte {
	var b []byte
	// ORIGIN: well-known mandatory (flags 0x40).
	b = append(b, 0x40, attrOrigin, 1, byte(a.Origin))
	// AS_PATH: 4-byte ASNs.
	var path []byte
	for _, seg := range a.ASPath {
		path = append(path, seg.Type, byte(len(seg.ASNs)))
		for _, as := range seg.ASNs {
			path = binary.BigEndian.AppendUint32(path, uint32(as))
		}
	}
	if len(path) > 255 {
		// Extended length attribute (flag 0x10).
		b = append(b, 0x50, attrASPath)
		b = binary.BigEndian.AppendUint16(b, uint16(len(path)))
	} else {
		b = append(b, 0x40, attrASPath, byte(len(path)))
	}
	b = append(b, path...)
	// NEXT_HOP.
	b = append(b, 0x40, attrNextHop, 4)
	b = binary.BigEndian.AppendUint32(b, uint32(a.NextHop))
	if a.HasMED {
		b = append(b, 0x80, attrMED, 4)
		b = binary.BigEndian.AppendUint32(b, a.MED)
	}
	if a.AtomicAggregate {
		b = append(b, 0x40, attrAtomicAggregate, 0)
	}
	if a.AggregatorAS != 0 {
		b = append(b, 0xc0, attrAggregator, 8)
		b = binary.BigEndian.AppendUint32(b, uint32(a.AggregatorAS))
		b = binary.BigEndian.AppendUint32(b, uint32(a.AggregatorAddr))
	}
	if len(a.Communities) > 0 {
		b = append(b, 0xc0, attrCommunities, byte(4*len(a.Communities)))
		for _, c := range a.Communities {
			b = binary.BigEndian.AppendUint32(b, c)
		}
	}
	if len(a.LargeCommunities) > 0 {
		b = append(b, 0xc0, attrLargeCommunities, byte(12*len(a.LargeCommunities)))
		for _, c := range a.LargeCommunities {
			b = binary.BigEndian.AppendUint32(b, c.GlobalAdmin)
			b = binary.BigEndian.AppendUint32(b, c.LocalData1)
			b = binary.BigEndian.AppendUint32(b, c.LocalData2)
		}
	}
	return b
}

// decodeAttrs parses a path attribute block. Each attribute's header and
// body are taken from c whole, and its fields are read from the body at
// offsets its checked length makes safe.
func decodeAttrs(c netx.Cursor) (Attributes, error) {
	var a Attributes
	for c.Err() == nil && c.Len() > 0 {
		h := c.Take(3) // flags, type, length (its high byte if extended)
		if h == nil {
			break
		}
		typ, alen := h[1], int(h[2])
		if h[0]&0x10 != 0 { // extended length
			alen = alen<<8 | int(c.U8())
		}
		body := c.Take(alen)
		if c.Err() != nil {
			break
		}
		switch typ {
		case attrOrigin:
			if alen != 1 {
				c.Fail(errors.New("bad ORIGIN length"))
				break
			}
			a.Origin = Origin(body[0])
		case attrASPath:
			segs := netx.NewCursor(body)
			for segs.Err() == nil && segs.Len() > 0 {
				h := segs.Take(2) // segment type, ASN count
				if h == nil {
					break
				}
				if h[0] != SegmentSet && h[0] != SegmentSequence {
					segs.Fail(fmt.Errorf("bad AS_PATH segment type %d", h[0]))
					break
				}
				asns := segs.Take(4 * int(h[1]))
				if segs.Err() != nil {
					break
				}
				seg := PathSegment{Type: h[0], ASNs: make([]ASN, h[1])}
				for i := range seg.ASNs {
					seg.ASNs[i] = ASN(binary.BigEndian.Uint32(asns[4*i:]))
				}
				a.ASPath = append(a.ASPath, seg)
			}
			c.Fail(segs.Err())
		case attrNextHop:
			if alen != 4 {
				c.Fail(errors.New("bad NEXT_HOP length"))
				break
			}
			a.NextHop = netx.Addr(binary.BigEndian.Uint32(body))
		case attrMED:
			if alen != 4 {
				c.Fail(errors.New("bad MED length"))
				break
			}
			a.MED, a.HasMED = binary.BigEndian.Uint32(body), true
		case attrAtomicAggregate:
			if alen != 0 {
				c.Fail(errors.New("bad ATOMIC_AGGREGATE length"))
				break
			}
			a.AtomicAggregate = true
		case attrAggregator:
			if alen != 8 {
				c.Fail(errors.New("bad AGGREGATOR length (want AS4 form)"))
				break
			}
			a.AggregatorAS = ASN(binary.BigEndian.Uint32(body))
			a.AggregatorAddr = netx.Addr(binary.BigEndian.Uint32(body[4:]))
		case attrCommunities:
			if alen%4 != 0 {
				c.Fail(errors.New("bad COMMUNITIES length"))
				break
			}
			for i := 0; i < alen; i += 4 {
				a.Communities = append(a.Communities, binary.BigEndian.Uint32(body[i:]))
			}
		case attrLargeCommunities:
			if alen%12 != 0 {
				c.Fail(errors.New("bad LARGE_COMMUNITY length"))
				break
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
	}
	return a, c.Err()
}

// Marshal serializes the UPDATE as a full BGP message (header included).
func (u *Update) Marshal() ([]byte, error) {
	var withdrawn []byte
	for _, p := range u.Withdrawn {
		withdrawn = appendPrefix(withdrawn, p)
	}
	var attrs []byte
	if len(u.NLRI) > 0 || len(u.Attrs.ASPath) > 0 {
		attrs = encodeAttrs(&u.Attrs)
	}
	var nlri []byte
	for _, p := range u.NLRI {
		nlri = appendPrefix(nlri, p)
	}
	total := headerLen + 2 + len(withdrawn) + 2 + len(attrs) + len(nlri)
	if total > maxMsgLen {
		return nil, fmt.Errorf("bgp: message too large (%d bytes)", total)
	}
	b := make([]byte, 0, total)
	for i := 0; i < 16; i++ {
		b = append(b, 0xff)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(total))
	b = append(b, msgTypeUpdate)
	b = binary.BigEndian.AppendUint16(b, uint16(len(withdrawn)))
	b = append(b, withdrawn...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(attrs)))
	b = append(b, attrs...)
	b = append(b, nlri...)
	return b, nil
}

// UnmarshalUpdate parses a full BGP message, which must be an UPDATE.
func UnmarshalUpdate(b []byte) (*Update, error) {
	c := netx.NewCursor(b)
	marker, total, typ := c.Take(16), int(c.U16()), c.U8()
	switch {
	case c.Err() != nil:
		return nil, errors.New("bgp: truncated header")
	case !isMarker(marker):
		return nil, errors.New("bgp: bad marker")
	case total != len(b):
		return nil, fmt.Errorf("bgp: length mismatch: header says %d, have %d", total, len(b))
	case typ != msgTypeUpdate:
		return nil, fmt.Errorf("bgp: not an UPDATE (type %d)", typ)
	}
	u := &Update{}
	var err error
	if u.Withdrawn, err = decodePrefixes(c.Sub(int(c.U16()))); err == nil {
		if u.Attrs, err = decodeAttrs(c.Sub(int(c.U16()))); err == nil {
			u.NLRI, err = decodePrefixes(c)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("bgp: UPDATE: %w", err)
	}
	return u, nil
}

// isMarker reports whether p is the all-ones marker a BGP message opens with.
func isMarker(p []byte) bool {
	for _, b := range p {
		if b != 0xff {
			return false
		}
	}
	return len(p) == 16
}
