// Package ipfix implements the subset of the IPFIX protocol (RFC 7011)
// that an IXP-style flow pipeline needs: template records, data records,
// message framing, a file reader/writer (concatenated messages, as in
// RFC 5655 files), and a UDP exporter/collector pair.
//
// The flow schema mirrors the paper's vantage point: IP and transport
// headers plus packet/byte counts from 1-in-N packet sampling, and the
// ingress/egress IXP member ports the flow crossed.
package ipfix

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"spoofscope/internal/netx"
)

// Standard information element IDs used by this package (IANA registry).
const (
	IEOctetDeltaCount       = 1   // uint64
	IEPacketDeltaCount      = 2   // uint64
	IEProtocolIdentifier    = 4   // uint8
	IETCPControlBits        = 6   // uint8
	IESourceTransportPort   = 7   // uint16
	IESourceIPv4Address     = 8   // 4 bytes
	IEIngressInterface      = 10  // uint32
	IEDestTransportPort     = 11  // uint16
	IEDestIPv4Address       = 12  // 4 bytes
	IEEgressInterface       = 14  // uint32
	IEFlowStartMilliseconds = 152 // uint64, ms since epoch
)

// ieLengths maps supported IEs to their fixed field lengths.
var ieLengths = map[uint16]uint16{
	IEOctetDeltaCount:       8,
	IEPacketDeltaCount:      8,
	IEProtocolIdentifier:    1,
	IETCPControlBits:        1,
	IESourceTransportPort:   2,
	IESourceIPv4Address:     4,
	IEIngressInterface:      4,
	IEDestTransportPort:     2,
	IEDestIPv4Address:       4,
	IEEgressInterface:       4,
	IEFlowStartMilliseconds: 8,
}

// FlowTemplateID is the template ID this package's encoder uses.
const FlowTemplateID = 256

// flowTemplateFields is the canonical field order of the encoder's template.
var flowTemplateFields = []uint16{
	IEFlowStartMilliseconds,
	IESourceIPv4Address,
	IEDestIPv4Address,
	IESourceTransportPort,
	IEDestTransportPort,
	IEProtocolIdentifier,
	IETCPControlBits,
	IEPacketDeltaCount,
	IEOctetDeltaCount,
	IEIngressInterface,
	IEEgressInterface,
}

// Flow is one flow record: the unit the classifier consumes. Packets and
// Bytes are the *sampled* counts (multiply by the sampling rate to
// extrapolate).
type Flow struct {
	Start    time.Time
	SrcAddr  netx.Addr
	DstAddr  netx.Addr
	SrcPort  uint16
	DstPort  uint16
	Protocol uint8
	TCPFlags uint8
	Packets  uint64
	Bytes    uint64
	// Ingress and Egress are IXP switch-port IDs; the scenario's member
	// table maps them to member ASes.
	Ingress uint32
	Egress  uint32
}

// PerFlow adapts a per-flow callback to the batch contract every collector
// and reader delivers through (ServeBatch, AcceptOneBatch, ForEachBatch): fn
// sees the batch's flows one by one, and its first false stops the batch and
// the stream.
func PerFlow(fn func(Flow) bool) func([]Flow) bool {
	return func(batch []Flow) bool {
		for i := range batch {
			if !fn(batch[i]) {
				return false
			}
		}
		return true
	}
}

// Common protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

const (
	msgHeaderLen = 16
	setHeaderLen = 4
	version      = 10
)

// flowRecordLen is the encoded size of one Flow under the canonical template.
var flowRecordLen = func() int {
	n := 0
	for _, ie := range flowTemplateFields {
		n += int(ieLengths[ie])
	}
	return n
}()

// Encoder serializes flows into IPFIX messages. It is not safe for
// concurrent use.
type Encoder struct {
	domain       uint32
	seq          uint32
	sentTemplate bool
	// MaxRecordsPerMessage bounds message size; 50 records ≈ 2.3 KB,
	// comfortably under a 1500-byte-safe limit would be 25. Default 25.
	MaxRecordsPerMessage int
}

// NewEncoder returns an encoder for the given observation domain.
func NewEncoder(domain uint32) *Encoder {
	return &Encoder{domain: domain, MaxRecordsPerMessage: 25}
}

func (e *Encoder) header(b []byte, length int, exportTime time.Time) {
	binary.BigEndian.PutUint16(b[0:], version)
	binary.BigEndian.PutUint16(b[2:], uint16(length))
	binary.BigEndian.PutUint32(b[4:], uint32(exportTime.Unix()))
	binary.BigEndian.PutUint32(b[8:], e.seq)
	binary.BigEndian.PutUint32(b[12:], e.domain)
}

// TemplateMessage returns an IPFIX message carrying the flow template.
// Encoders emit it automatically at the start of a stream; collectors that
// join mid-stream (UDP) need it re-sent periodically.
func (e *Encoder) TemplateMessage(exportTime time.Time) []byte {
	setLen := setHeaderLen + 4 + 4*len(flowTemplateFields)
	total := msgHeaderLen + setLen
	b := make([]byte, total)
	e.header(b, total, exportTime)
	p := b[msgHeaderLen:]
	binary.BigEndian.PutUint16(p[0:], 2) // template set
	binary.BigEndian.PutUint16(p[2:], uint16(setLen))
	binary.BigEndian.PutUint16(p[4:], FlowTemplateID)
	binary.BigEndian.PutUint16(p[6:], uint16(len(flowTemplateFields)))
	off := 8
	for _, ie := range flowTemplateFields {
		binary.BigEndian.PutUint16(p[off:], ie)
		binary.BigEndian.PutUint16(p[off+2:], ieLengths[ie])
		off += 4
	}
	e.sentTemplate = true
	return b
}

// Encode serializes flows into one or more IPFIX messages (the first call
// also emits the template message). The export time stamps the messages.
func (e *Encoder) Encode(exportTime time.Time, flows []Flow) [][]byte {
	var msgs [][]byte
	if !e.sentTemplate {
		msgs = append(msgs, e.TemplateMessage(exportTime))
	}
	for len(flows) > 0 {
		n := len(flows)
		if n > e.MaxRecordsPerMessage {
			n = e.MaxRecordsPerMessage
		}
		batch := flows[:n]
		flows = flows[n:]
		setLen := setHeaderLen + n*flowRecordLen
		total := msgHeaderLen + setLen
		b := make([]byte, total)
		e.header(b, total, exportTime)
		p := b[msgHeaderLen:]
		binary.BigEndian.PutUint16(p[0:], FlowTemplateID)
		binary.BigEndian.PutUint16(p[2:], uint16(setLen))
		off := setHeaderLen
		for _, f := range batch {
			off += encodeFlow(p[off:], &f)
		}
		e.seq += uint32(n)
		msgs = append(msgs, b)
	}
	return msgs
}

func encodeFlow(b []byte, f *Flow) int {
	off := 0
	binary.BigEndian.PutUint64(b[off:], uint64(f.Start.UnixMilli()))
	off += 8
	binary.BigEndian.PutUint32(b[off:], uint32(f.SrcAddr))
	off += 4
	binary.BigEndian.PutUint32(b[off:], uint32(f.DstAddr))
	off += 4
	binary.BigEndian.PutUint16(b[off:], f.SrcPort)
	off += 2
	binary.BigEndian.PutUint16(b[off:], f.DstPort)
	off += 2
	b[off] = f.Protocol
	off++
	b[off] = f.TCPFlags
	off++
	binary.BigEndian.PutUint64(b[off:], f.Packets)
	off += 8
	binary.BigEndian.PutUint64(b[off:], f.Bytes)
	off += 8
	binary.BigEndian.PutUint32(b[off:], f.Ingress)
	off += 4
	binary.BigEndian.PutUint32(b[off:], f.Egress)
	off += 4
	return off
}

// template describes a received template: field IDs and lengths in order.
type template struct {
	fields []templateField
	size   int
}

type templateField struct {
	id     uint16
	length uint16
}

// Decoder parses IPFIX messages. It keeps per-domain template state and
// tolerates templates other than the canonical one, decoding any record
// that carries the IEs it knows and skipping fields it does not.
type Decoder struct {
	templates map[uint64]*template // (domain << 16 | templateID)
	// Stats
	Messages        int
	RecordsDecoded  int
	RecordsSkipped  int // data sets with unknown template
	UnknownSetsSeen int
}

// NewDecoder returns an empty decoder.
func NewDecoder() *Decoder {
	return &Decoder{templates: make(map[uint64]*template)}
}

func tkey(domain uint32, id uint16) uint64 { return uint64(domain)<<16 | uint64(id) }

// Decode parses one IPFIX message and appends decoded flows to dst,
// returning the extended slice.
func (d *Decoder) Decode(msg []byte, dst []Flow) ([]Flow, error) {
	if len(msg) < msgHeaderLen {
		return dst, errors.New("ipfix: truncated message header")
	}
	if v := binary.BigEndian.Uint16(msg); v != version {
		return dst, fmt.Errorf("ipfix: unsupported version %d", v)
	}
	total := int(binary.BigEndian.Uint16(msg[2:]))
	if total != len(msg) {
		return dst, fmt.Errorf("ipfix: length mismatch: header %d, have %d", total, len(msg))
	}
	domain := binary.BigEndian.Uint32(msg[12:])
	d.Messages++
	p := msg[msgHeaderLen:]
	for len(p) > 0 {
		if len(p) < setHeaderLen {
			return dst, errors.New("ipfix: truncated set header")
		}
		setID := binary.BigEndian.Uint16(p)
		setLen := int(binary.BigEndian.Uint16(p[2:]))
		if setLen < setHeaderLen || setLen > len(p) {
			return dst, fmt.Errorf("ipfix: bad set length %d", setLen)
		}
		body := p[setHeaderLen:setLen]
		switch {
		case setID == 2:
			if err := d.parseTemplates(domain, body); err != nil {
				return dst, err
			}
		case setID >= 256:
			var err error
			dst, err = d.parseData(domain, setID, body, dst)
			if err != nil {
				return dst, err
			}
		default:
			d.UnknownSetsSeen++
		}
		p = p[setLen:]
	}
	return dst, nil
}

// AppendFlows is the batch-decode entry point the ingest path builds on: it
// parses one IPFIX message and appends every decoded flow to dst, returning
// the extended slice. It is Decode under the name the collectors use — once
// dst has grown to the feed's steady-state message size a call allocates
// nothing: template state lives in the decoder and records land directly in
// the caller-owned batch, which can be handed to the classifier (or an
// IngestQueue's PushBatch) without a per-flow copy.
func (d *Decoder) AppendFlows(msg []byte, dst []Flow) ([]Flow, error) {
	return d.Decode(msg, dst)
}

func (d *Decoder) parseTemplates(domain uint32, b []byte) error {
	for len(b) >= 4 {
		id := binary.BigEndian.Uint16(b)
		count := int(binary.BigEndian.Uint16(b[2:]))
		b = b[4:]
		if len(b) < 4*count {
			return errors.New("ipfix: truncated template record")
		}
		// RFC 7011 exporters re-announce templates periodically; a refresh
		// identical to the registered template (the overwhelmingly common
		// case) must not rebuild it — long-running streams would otherwise
		// allocate on every refresh interval.
		if old, ok := d.templates[tkey(domain, id)]; ok && len(old.fields) == count {
			same := true
			for i := 0; i < count; i++ {
				f := templateField{
					id:     binary.BigEndian.Uint16(b[4*i:]),
					length: binary.BigEndian.Uint16(b[4*i+2:]),
				}
				if old.fields[i] != f {
					same = false
					break
				}
			}
			if same {
				b = b[4*count:]
				continue
			}
		}
		t := &template{}
		for i := 0; i < count; i++ {
			ie := binary.BigEndian.Uint16(b[4*i:])
			if ie&0x8000 != 0 {
				return errors.New("ipfix: enterprise IEs unsupported")
			}
			l := binary.BigEndian.Uint16(b[4*i+2:])
			if l == 0xffff {
				return errors.New("ipfix: variable-length IEs unsupported")
			}
			t.fields = append(t.fields, templateField{id: ie, length: l})
			t.size += int(l)
		}
		b = b[4*count:]
		if t.size == 0 {
			return errors.New("ipfix: empty template")
		}
		d.templates[tkey(domain, id)] = t
	}
	return nil
}

func (d *Decoder) parseData(domain uint32, setID uint16, b []byte, dst []Flow) ([]Flow, error) {
	t, ok := d.templates[tkey(domain, setID)]
	if !ok {
		d.RecordsSkipped++
		return dst, nil // RFC 7011: buffer or drop; we drop
	}
	for len(b) >= t.size {
		var f Flow
		off := 0
		for _, fld := range t.fields {
			v := b[off : off+int(fld.length)]
			// A known IE advertised at a non-canonical length (reduced-size
			// or hostile encoding) is skipped like an unknown one rather
			// than fed to a fixed-width parse below.
			if fld.length != ieLengths[fld.id] {
				off += int(fld.length)
				continue
			}
			switch fld.id {
			case IEFlowStartMilliseconds:
				f.Start = time.UnixMilli(int64(binary.BigEndian.Uint64(v))).UTC()
			case IESourceIPv4Address:
				f.SrcAddr = netx.Addr(binary.BigEndian.Uint32(v))
			case IEDestIPv4Address:
				f.DstAddr = netx.Addr(binary.BigEndian.Uint32(v))
			case IESourceTransportPort:
				f.SrcPort = binary.BigEndian.Uint16(v)
			case IEDestTransportPort:
				f.DstPort = binary.BigEndian.Uint16(v)
			case IEProtocolIdentifier:
				f.Protocol = v[0]
			case IETCPControlBits:
				f.TCPFlags = v[0]
			case IEPacketDeltaCount:
				f.Packets = binary.BigEndian.Uint64(v)
			case IEOctetDeltaCount:
				f.Bytes = binary.BigEndian.Uint64(v)
			case IEIngressInterface:
				f.Ingress = binary.BigEndian.Uint32(v)
			case IEEgressInterface:
				f.Egress = binary.BigEndian.Uint32(v)
			default:
				// Unknown IE: skipped by length.
			}
			off += int(fld.length)
		}
		dst = append(dst, f)
		d.RecordsDecoded++
		b = b[t.size:]
	}
	// Remaining bytes < record size are padding (RFC 7011 §3.3.1).
	return dst, nil
}
