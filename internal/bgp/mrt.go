package bgp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"spoofscope/internal/netx"
)

// MRT record types and subtypes (RFC 6396).
const (
	mrtTypeTableDumpV2 = 13
	mrtTypeBGP4MP      = 16

	subPeerIndexTable = 1
	subRIBIPv4Unicast = 2

	subBGP4MPMessageAS4 = 4
)

// Peer describes one collector peer in a PEER_INDEX_TABLE.
type Peer struct {
	BGPID netx.Addr
	Addr  netx.Addr
	AS    ASN
}

// PeerIndexTable is the TABLE_DUMP_V2 PEER_INDEX_TABLE record.
type PeerIndexTable struct {
	CollectorID netx.Addr
	ViewName    string
	Peers       []Peer
}

// RIBEntry is one peer's route toward a prefix in a RIB_IPV4_UNICAST record.
type RIBEntry struct {
	PeerIndex      uint16
	OriginatedTime time.Time
	Attrs          Attributes
}

// RIBRecord is the TABLE_DUMP_V2 RIB_IPV4_UNICAST record: all collector
// peers' routes toward one prefix.
type RIBRecord struct {
	Sequence uint32
	Prefix   netx.Prefix
	Entries  []RIBEntry
}

// BGP4MPMessage is a BGP4MP MESSAGE_AS4 record: a raw BGP message observed
// on a collector session, with session metadata.
type BGP4MPMessage struct {
	PeerAS, LocalAS ASN
	InterfaceIndex  uint16
	PeerIP, LocalIP netx.Addr
	Message         []byte // full BGP message, header included
}

// Record is any decoded MRT record. Timestamp is the MRT header timestamp.
type Record struct {
	Timestamp time.Time
	// Exactly one of the following is non-nil.
	PeerIndex *PeerIndexTable
	RIB       *RIBRecord
	BGP4MP    *BGP4MPMessage
}

// Writer writes MRT records to an underlying stream.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter returns an MRT writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

func (w *Writer) record(ts time.Time, typ, sub uint16, body []byte) error {
	if w.err != nil {
		return w.err
	}
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(ts.Unix()))
	binary.BigEndian.PutUint16(hdr[4:], typ)
	binary.BigEndian.PutUint16(hdr[6:], sub)
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(body)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(body); err != nil {
		w.err = err
		return err
	}
	return nil
}

// WritePeerIndexTable writes a TABLE_DUMP_V2 PEER_INDEX_TABLE record.
func (w *Writer) WritePeerIndexTable(ts time.Time, t *PeerIndexTable) error {
	var b []byte
	b = binary.BigEndian.AppendUint32(b, uint32(t.CollectorID))
	b = binary.BigEndian.AppendUint16(b, uint16(len(t.ViewName)))
	b = append(b, t.ViewName...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(t.Peers)))
	for _, p := range t.Peers {
		// Peer type: bit 0 = IPv6 (never set here), bit 1 = 4-byte AS.
		b = append(b, 0x02)
		b = binary.BigEndian.AppendUint32(b, uint32(p.BGPID))
		b = binary.BigEndian.AppendUint32(b, uint32(p.Addr))
		b = binary.BigEndian.AppendUint32(b, uint32(p.AS))
	}
	return w.record(ts, mrtTypeTableDumpV2, subPeerIndexTable, b)
}

// WriteRIB writes a TABLE_DUMP_V2 RIB_IPV4_UNICAST record.
func (w *Writer) WriteRIB(ts time.Time, r *RIBRecord) error {
	var b []byte
	b = binary.BigEndian.AppendUint32(b, r.Sequence)
	b = appendPrefix(b, r.Prefix)
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.Entries)))
	for _, e := range r.Entries {
		b = binary.BigEndian.AppendUint16(b, e.PeerIndex)
		b = binary.BigEndian.AppendUint32(b, uint32(e.OriginatedTime.Unix()))
		attrs := encodeAttrs(&e.Attrs)
		b = binary.BigEndian.AppendUint16(b, uint16(len(attrs)))
		b = append(b, attrs...)
	}
	return w.record(ts, mrtTypeTableDumpV2, subRIBIPv4Unicast, b)
}

// WriteBGP4MP writes a BGP4MP MESSAGE_AS4 record.
func (w *Writer) WriteBGP4MP(ts time.Time, m *BGP4MPMessage) error {
	var b []byte
	b = binary.BigEndian.AppendUint32(b, uint32(m.PeerAS))
	b = binary.BigEndian.AppendUint32(b, uint32(m.LocalAS))
	b = binary.BigEndian.AppendUint16(b, m.InterfaceIndex)
	b = binary.BigEndian.AppendUint16(b, 1) // AFI IPv4
	b = binary.BigEndian.AppendUint32(b, uint32(m.PeerIP))
	b = binary.BigEndian.AppendUint32(b, uint32(m.LocalIP))
	b = append(b, m.Message...)
	return w.record(ts, mrtTypeBGP4MP, subBGP4MPMessageAS4, b)
}

// WriteUpdate is a convenience wrapper serializing u and writing it as a
// BGP4MP MESSAGE_AS4 record.
func (w *Writer) WriteUpdate(ts time.Time, peerAS, localAS ASN, peerIP, localIP netx.Addr, u *Update) error {
	msg, err := u.Marshal()
	if err != nil {
		return err
	}
	return w.WriteBGP4MP(ts, &BGP4MPMessage{
		PeerAS: peerAS, LocalAS: localAS,
		PeerIP: peerIP, LocalIP: localIP,
		Message: msg,
	})
}

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader reads MRT records from a stream.
type Reader struct {
	r *bufio.Reader
}

// NewReader returns an MRT reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Next returns the next record, or io.EOF at end of stream. Records of
// unknown type are skipped transparently.
func (r *Reader) Next() (*Record, error) {
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
			t, err := decodePeerIndexTable(body)
			if err != nil {
				return nil, err
			}
			rec.PeerIndex = t
		case typ == mrtTypeTableDumpV2 && sub == subRIBIPv4Unicast:
			rr, err := decodeRIBRecord(body)
			if err != nil {
				return nil, err
			}
			rec.RIB = rr
		case typ == mrtTypeBGP4MP && sub == subBGP4MPMessageAS4:
			m, err := decodeBGP4MP(body)
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

func decodePeerIndexTable(b []byte) (*PeerIndexTable, error) {
	c := netx.NewCursor(b)
	t := &PeerIndexTable{CollectorID: netx.Addr(c.U32())}
	t.ViewName = string(c.Take(int(c.U16())))
	for range c.U16() {
		pt := c.U8()
		if pt&0x01 != 0 {
			c.Fail(errors.New("IPv6 peers unsupported"))
		}
		p := Peer{BGPID: netx.Addr(c.U32()), Addr: netx.Addr(c.U32())}
		if pt&0x02 != 0 { // 4-byte AS
			p.AS = ASN(c.U32())
		} else {
			p.AS = ASN(c.U16())
		}
		if c.Err() != nil {
			break
		}
		t.Peers = append(t.Peers, p)
	}
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("bgp: PEER_INDEX_TABLE: %w", err)
	}
	return t, nil
}

func decodeRIBRecord(b []byte) (*RIBRecord, error) {
	c := netx.NewCursor(b)
	r := &RIBRecord{Sequence: c.U32()}
	r.Prefix = decodePrefix(&c)
	for range c.U16() {
		h := c.Take(8) // peer index, originated time, attribute length
		if h == nil {
			break
		}
		e := RIBEntry{PeerIndex: binary.BigEndian.Uint16(h), OriginatedTime: time.Unix(int64(binary.BigEndian.Uint32(h[2:])), 0).UTC()}
		var err error
		if e.Attrs, err = decodeAttrs(c.Sub(int(binary.BigEndian.Uint16(h[6:])))); err != nil {
			c.Fail(err)
			break
		}
		r.Entries = append(r.Entries, e)
	}
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("bgp: RIB record: %w", err)
	}
	return r, nil
}

func decodeBGP4MP(b []byte) (*BGP4MPMessage, error) {
	c := netx.NewCursor(b)
	m := &BGP4MPMessage{PeerAS: ASN(c.U32()), LocalAS: ASN(c.U32()), InterfaceIndex: c.U16()}
	afi := c.U16()
	m.PeerIP, m.LocalIP = netx.Addr(c.U32()), netx.Addr(c.U32())
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("bgp: BGP4MP record: %w", err)
	}
	if afi != 1 {
		return nil, fmt.Errorf("bgp: BGP4MP AFI %d unsupported", afi)
	}
	m.Message = append([]byte(nil), c.Take(c.Len())...)
	return m, nil
}
