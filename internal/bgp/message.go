// Package bgp implements the subset of the BGP-4 (RFC 4271) and MRT
// (RFC 6396) wire formats needed to reproduce the paper's routing pipeline:
// UPDATE messages with 4-byte AS paths, TABLE_DUMP_V2 RIB snapshots,
// BGP4MP update streams, and a RIB that digests both into the
// (prefix, AS path) pairs the cone-inference algorithms consume.
//
// Everything is encoded and decoded from scratch with encoding/binary; the
// encoder and decoder are exact inverses and are property-tested as such.
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

// decodePrefix decodes one NLRI prefix, returning the bytes consumed.
func decodePrefix(b []byte) (netx.Prefix, int, error) {
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

// decodeAttrs parses a path attribute block.
func decodeAttrs(b []byte) (Attributes, error) {
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
		p, n, err := decodePrefix(w)
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
		attrs, err := decodeAttrs(body[:alen])
		if err != nil {
			return nil, err
		}
		u.Attrs = attrs
	}
	body = body[alen:]
	for len(body) > 0 {
		p, n, err := decodePrefix(body)
		if err != nil {
			return nil, err
		}
		u.NLRI = append(u.NLRI, p)
		body = body[n:]
	}
	return u, nil
}
