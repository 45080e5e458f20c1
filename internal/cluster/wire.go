// Package cluster shards live classification across worker processes.
//
// A Coordinator owns the flow source and the routing feed; Workers own
// disjoint ingress-member shards (stable hash of the ingress port, so a
// member's traffic always lands on the same shard) and run the ordinary
// single-process runtime — compiled pipeline, bounded queue, batch-parallel
// drain — against their slice of the traffic. The coordinator distributes
// RIB epochs (fingerprint-gated, so an unchanged table ships a few bytes),
// folds worker reports through the order-independent aggregate merge, and
// survives worker crashes by reassigning a dead worker's shards from their
// last acknowledged checkpoint plus a replay buffer — no flow is counted
// twice and none is lost.
//
// The wire protocol in this file is deliberately minimal: length-prefixed
// frames over any net.Conn, so tests can run it over net.Pipe and wrap it
// in faultnet schedules. Frames carry fixed-width big-endian scalars — the
// same discipline as the checkpoint codec — so every encoding is canonical
// and replayable.
package cluster

import (
	"bytes"
	"compress/flate"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/core"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
	"spoofscope/internal/obs"
)

// Message types. The one-byte tag leads every frame body.
const (
	msgHello        = 1  // worker → coordinator: authenticated identity
	msgEpoch        = 2  // coordinator → worker: routing state (full or bump)
	msgAssign       = 3  // coordinator → worker: shard ownership + resume state
	msgRevoke       = 4  // coordinator → worker: drain shard, send final report
	msgFlows        = 5  // coordinator → worker: a batch of shard flows
	msgReportReq    = 6  // coordinator → worker: request a quiescent report
	msgReport       = 7  // worker → coordinator: shard checkpoint
	msgHeartbeat    = 8  // both directions: liveness
	msgChallenge    = 9  // coordinator → worker: auth nonce, first frame on a conn
	msgFlowsZ       = 10 // coordinator → worker: a flate-compressed flow batch
	msgTelemetry    = 11 // worker → coordinator: metric samples + journal events
	msgTelemetryAck = 12 // coordinator → worker: highest journal seq folded in
)

// maxFrame bounds a frame body so a corrupted length prefix cannot force
// an unbounded allocation — the same defence the checkpoint decoder has.
const maxFrame = 1 << 26

// flowWireLen is the fixed encoded size of one flow on the cluster wire.
const flowWireLen = 8 + 4 + 4 + 2 + 2 + 1 + 1 + 8 + 8 + 4 + 4

var errFrameTooLarge = errors.New("cluster: frame exceeds size cap")

// frameHeadLen is the length prefix in front of every frame body: 4 bytes,
// big-endian. The body's first byte is the message type.
const frameHeadLen = 4

// beginFrame starts a wire-ready frame in b's storage: room for the length
// prefix, then whatever body the caller appends. sealFrame fills the prefix
// in, and the frame goes out in one Write (writeSealed) — a prefix sent on its
// own would cost a second Write and a segment for its four bytes. Every
// encoder below returns a frame built this way; the coordinator builds flow
// frames, and the worker its reports, in buffers their writers hand back.
func beginFrame(b []byte) []byte { return append(b[:0], 0, 0, 0, 0) }

// sealFrame completes a frame started by beginFrame.
func sealFrame(frame []byte) []byte {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-frameHeadLen))
	return frame
}

// writeSealed sends one wire-ready frame: prefix and body in a single Write.
func writeSealed(w io.Writer, frame []byte) error {
	if len(frame)-frameHeadLen > maxFrame {
		return errFrameTooLarge
	}
	_, err := w.Write(frame)
	return err
}

// readFrame reads one frame body. The deadline (zero = none) bounds the
// wait — the liveness detector for both sides of a link. The body lands in
// buf's storage when that is large enough and in a fresh allocation
// otherwise; a read loop that is done with each body before the next read
// passes the last body back (a stack header would escape through
// io.ReadFull, so the length prefix is read into the same storage), and one
// that keeps bodies passes nil.
func readFrame(c net.Conn, deadline time.Time, buf []byte) ([]byte, error) {
	if err := c.SetReadDeadline(deadline); err != nil {
		return nil, err
	}
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(c, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 {
		return nil, errors.New("cluster: empty frame")
	}
	if n > maxFrame {
		return nil, errFrameTooLarge
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(c, body); err != nil {
		return nil, err
	}
	return body, nil
}

// --- scalar append/consume helpers -----------------------------------------

func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// reader consumes scalars from a frame body, latching the first error —
// the decoding discipline shared with the checkpoint codec.
type reader struct {
	b   []byte
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) bytes() []byte {
	n := r.u32()
	if r.err == nil && int(n) > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	return r.take(int(n))
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("cluster: %d trailing bytes in frame", len(r.b))
	}
	return nil
}

// --- flow codec ------------------------------------------------------------

func appendFlow(b []byte, f ipfix.Flow) []byte {
	b = appendU64(b, uint64(f.Start.UnixNano()))
	b = appendU32(b, uint32(f.SrcAddr))
	b = appendU32(b, uint32(f.DstAddr))
	b = appendU16(b, f.SrcPort)
	b = appendU16(b, f.DstPort)
	b = append(b, f.Protocol, f.TCPFlags)
	b = appendU64(b, f.Packets)
	b = appendU64(b, f.Bytes)
	b = appendU32(b, f.Ingress)
	b = appendU32(b, f.Egress)
	return b
}

func (r *reader) flow() ipfix.Flow {
	var f ipfix.Flow
	f.Start = time.Unix(0, int64(r.u64())).UTC()
	f.SrcAddr = netx.Addr(r.u32())
	f.DstAddr = netx.Addr(r.u32())
	f.SrcPort = r.u16()
	f.DstPort = r.u16()
	f.Protocol = r.u8()
	f.TCPFlags = r.u8()
	f.Packets = r.u64()
	f.Bytes = r.u64()
	f.Ingress = r.u32()
	f.Egress = r.u32()
	return f
}

// --- message codecs --------------------------------------------------------

// challengeNonceLen is the size of the per-connection auth nonce. The
// coordinator sends a fresh nonce as the first frame on every accepted
// connection; the hello's MAC binds to it, so a captured hello cannot be
// replayed on a later connection.
const challengeNonceLen = 32

func encodeChallenge(nonce []byte) []byte {
	b := append(beginFrame(nil), msgChallenge)
	b = appendU32(b, uint32(len(nonce)))
	return sealFrame(append(b, nonce...))
}

func decodeChallenge(body []byte) ([]byte, error) {
	r := &reader{b: body[1:]}
	nonce := append([]byte(nil), r.bytes()...)
	if err := r.done(); err != nil {
		return nil, err
	}
	if len(nonce) != challengeNonceLen {
		return nil, fmt.Errorf("cluster: challenge nonce is %d bytes, want %d", len(nonce), challengeNonceLen)
	}
	return nonce, nil
}

// helloMsg authenticates a worker. Identity is the stable name the worker
// keeps across restarts — the key shard reclaim matches on; name is the
// display label. MAC is HMAC-SHA256 over the challenge nonce plus the
// length-prefixed identity and name, keyed by the cluster's shared secret,
// so a hello proves possession of the secret and binds to this connection.
type helloMsg struct {
	identity string
	name     string
	mac      []byte
}

// helloMAC computes the hello authenticator for one challenge nonce.
func helloMAC(secret, nonce []byte, identity, name string) []byte {
	h := hmac.New(sha256.New, secret)
	h.Write(nonce)
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(identity)))
	h.Write(n[:])
	h.Write([]byte(identity))
	binary.BigEndian.PutUint32(n[:], uint32(len(name)))
	h.Write(n[:])
	h.Write([]byte(name))
	return h.Sum(nil)
}

func encodeHello(m helloMsg) []byte {
	b := append(beginFrame(nil), msgHello)
	b = appendU32(b, uint32(len(m.identity)))
	b = append(b, m.identity...)
	b = appendU32(b, uint32(len(m.name)))
	b = append(b, m.name...)
	b = appendU32(b, uint32(len(m.mac)))
	return sealFrame(append(b, m.mac...))
}

func decodeHello(body []byte) (helloMsg, error) {
	r := &reader{b: body[1:]}
	var m helloMsg
	m.identity = string(r.bytes())
	m.name = string(r.bytes())
	m.mac = append([]byte(nil), r.bytes()...)
	return m, r.done()
}

// epochMsg is a routing-state distribution. Full carries the announcement
// set and member table; a bump (full=false) just advances the epoch
// sequence — the coordinator sends it when the RIB fingerprint is
// unchanged, so workers know the table was refreshed without re-shipping
// or re-compiling anything. Trace identifies the distribution span and
// shipNanos is the coordinator's send timestamp — the worker subtracts it
// from its own clock at compile and first-verdict time to populate the
// epoch-propagation histogram (same-host clocks assumed; document skew).
type epochMsg struct {
	seq       uint64
	trace     uint64
	shipNanos int64
	full      bool
	members   []core.MemberInfo
	anns      []bgp.Announcement
}

// epochStampOffset is the byte offset of the trace+shipNanos pair in an
// encoded epoch body: [type][seq u64][trace u64][ship i64].... The
// coordinator caches the latest full epoch's body for late joiners (and in
// the ledger) and re-stamps these 16 bytes per send, so a joiner's
// propagation span measures its own delivery, not the original
// distribution's.
const epochStampOffset = 1 + 8

// stampEpochFrame copies a cached epoch body into a wire-ready frame of its
// own, re-stamped.
func stampEpochFrame(body []byte, trace uint64, shipNanos int64) []byte {
	out := append(beginFrame(make([]byte, 0, frameHeadLen+len(body))), body...)
	binary.BigEndian.PutUint64(out[frameHeadLen+epochStampOffset:], trace)
	binary.BigEndian.PutUint64(out[frameHeadLen+epochStampOffset+8:], uint64(shipNanos))
	return sealFrame(out)
}

func encodeEpoch(m epochMsg) []byte {
	b := append(beginFrame(nil), msgEpoch)
	b = appendU64(b, m.seq)
	b = appendU64(b, m.trace)
	b = appendU64(b, uint64(m.shipNanos))
	if !m.full {
		return sealFrame(append(b, 0))
	}
	b = append(b, 1)
	b = appendU32(b, uint32(len(m.members)))
	for _, mi := range m.members {
		b = appendU32(b, uint32(mi.ASN))
		b = appendU32(b, mi.Port)
	}
	b = appendU32(b, uint32(len(m.anns)))
	for _, a := range m.anns {
		b = appendU32(b, uint32(a.Prefix.Addr))
		b = append(b, a.Prefix.Bits)
		b = appendU16(b, uint16(len(a.Path)))
		for _, asn := range a.Path {
			b = appendU32(b, uint32(asn))
		}
	}
	return sealFrame(b)
}

func decodeEpoch(body []byte) (epochMsg, error) {
	r := &reader{b: body[1:]}
	var m epochMsg
	m.seq = r.u64()
	m.trace = r.u64()
	m.shipNanos = int64(r.u64())
	m.full = r.u8() == 1
	if !m.full {
		return m, r.done()
	}
	nm := int(r.u32())
	if r.err == nil && nm*8 > len(r.b) {
		return m, io.ErrUnexpectedEOF
	}
	m.members = make([]core.MemberInfo, 0, nm)
	for i := 0; i < nm && r.err == nil; i++ {
		m.members = append(m.members, core.MemberInfo{ASN: bgp.ASN(r.u32()), Port: r.u32()})
	}
	na := int(r.u32())
	if r.err == nil && na*7 > len(r.b) {
		return m, io.ErrUnexpectedEOF
	}
	m.anns = make([]bgp.Announcement, 0, na)
	for i := 0; i < na && r.err == nil; i++ {
		var a bgp.Announcement
		a.Prefix = netx.Prefix{Addr: netx.Addr(r.u32()), Bits: r.u8()}
		np := int(r.u16())
		if r.err == nil && np*4 > len(r.b) {
			return m, io.ErrUnexpectedEOF
		}
		a.Path = make([]bgp.ASN, 0, np)
		for j := 0; j < np && r.err == nil; j++ {
			a.Path = append(a.Path, bgp.ASN(r.u32()))
		}
		if len(a.Path) > 0 {
			a.Origin = a.Path[len(a.Path)-1]
		}
		m.anns = append(m.anns, a)
	}
	return m, r.done()
}

// assignMsg grants a worker ownership of a shard. Cursor is the number of
// shard flows already incorporated into the carried checkpoint (zero and an
// empty checkpoint for a fresh shard); the coordinator replays everything
// past it. Start/bucket configure a fresh shard's aggregator so every shard
// — and therefore the merged checkpoint — shares one time base. A decoded
// message's checkpoint aliases the frame body it was decoded from.
type assignMsg struct {
	shard      uint32
	trace      uint64 // non-zero: the handoff span this assign continues
	cursor     uint64
	startNanos int64
	bucket     int64
	checkpoint []byte
}

func encodeAssign(m assignMsg) []byte {
	b := append(beginFrame(nil), msgAssign)
	b = appendU32(b, m.shard)
	b = appendU64(b, m.trace)
	b = appendU64(b, m.cursor)
	b = appendU64(b, uint64(m.startNanos))
	b = appendU64(b, uint64(m.bucket))
	b = appendU32(b, uint32(len(m.checkpoint)))
	return sealFrame(append(b, m.checkpoint...))
}

func decodeAssign(body []byte) (assignMsg, error) {
	r := &reader{b: body[1:]}
	var m assignMsg
	m.shard = r.u32()
	m.trace = r.u64()
	m.cursor = r.u64()
	m.startNanos = int64(r.u64())
	m.bucket = int64(r.u64())
	m.checkpoint = r.bytes()
	return m, r.done()
}

// shardCtrlMsg is the shared shape of Revoke and ReportReq: a shard id, the
// trace span the request belongs to, and — for report requests — the
// coordinator's send timestamp, echoed back in the report so the round-trip
// is measured entirely on the coordinator's clock.
type shardCtrlMsg struct {
	shard uint32
	trace uint64
	nanos int64
}

func encodeShardCtrl(typ byte, m shardCtrlMsg) []byte {
	b := appendU32(append(beginFrame(nil), typ), m.shard)
	b = appendU64(b, m.trace)
	return sealFrame(appendU64(b, uint64(m.nanos)))
}

func decodeShardCtrl(body []byte) (shardCtrlMsg, error) {
	r := &reader{b: body[1:]}
	var m shardCtrlMsg
	m.shard = r.u32()
	m.trace = r.u64()
	m.nanos = int64(r.u64())
	return m, r.done()
}

// flowsMsg carries a batch of flows for one shard. Base is the stream
// position of the first flow — the worker checks it against its own cursor,
// so a dropped or replayed batch is detected immediately instead of
// corrupting the count.
type flowsMsg struct {
	shard uint32
	base  uint64
	flows []ipfix.Flow
}

// appendFlows appends m's frame body to b.
func appendFlows(b []byte, m flowsMsg) []byte {
	b = slices.Grow(b, 1+4+8+4+len(m.flows)*flowWireLen)
	b = append(b, msgFlows)
	b = appendU32(b, m.shard)
	b = appendU64(b, m.base)
	b = appendU32(b, uint32(len(m.flows)))
	for _, f := range m.flows {
		b = appendFlow(b, f)
	}
	return b
}

// Deflate state is expensive to build (the writer alone is ~1MB of window
// and hash tables), so both ends keep it: the coordinator's one deflater
// owns its writer, the workers' read loops share readers through a pool. At
// small frame batches the per-frame constructor cost would otherwise
// dominate the transport.
var flateReaders = sync.Pool{New: func() any {
	return flate.NewReader(bytes.NewReader(nil))
}}

// flowDeflater is the compressed variant's encode state: the raw flow bytes,
// their deflated form and the deflate writer, reused from frame to frame by
// the one goroutine that owns it. The zero value is ready to use.
type flowDeflater struct {
	raw []byte
	z   bytes.Buffer
	zw  *flate.Writer
}

// appendFlowsZ appends m's compressed frame body to b: the flow array is
// deflated in one length-prefixed block. Flow records share most of their
// bytes (timestamps, prefixes, zero padding), so batches compress well; the
// raw length travels alongside so the decoder can preflight its allocation.
func (d *flowDeflater) appendFlowsZ(b []byte, m flowsMsg) []byte {
	d.raw = d.raw[:0]
	for _, f := range m.flows {
		d.raw = appendFlow(d.raw, f)
	}
	d.z.Reset()
	if d.zw == nil {
		d.zw, _ = flate.NewWriter(&d.z, flate.DefaultCompression) // the level is valid: no error
	} else {
		d.zw.Reset(&d.z)
	}
	d.zw.Write(d.raw)
	d.zw.Close()
	b = append(b, msgFlowsZ)
	b = appendU32(b, m.shard)
	b = appendU64(b, m.base)
	b = appendU32(b, uint32(len(m.flows)))
	b = appendU32(b, uint32(len(d.raw)))
	b = appendU32(b, uint32(d.z.Len()))
	return append(b, d.z.Bytes()...)
}

// flowScratch is decode storage a read loop owns and lends to every flow
// frame: the decoded flows — and, for a compressed frame, the inflated bytes —
// land in it, so the returned message is valid only until the next decode.
// The shard runtime copies flows into its ring on ingest, which is all the
// lifetime the worker needs. The zero value is ready to use.
type flowScratch struct {
	flows []ipfix.Flow
	raw   bytes.Buffer
}

func (sc *flowScratch) decode(body []byte) (flowsMsg, error) {
	if body[0] == msgFlowsZ {
		return sc.decodeZ(body)
	}
	r := &reader{b: body[1:]}
	var m flowsMsg
	m.shard = r.u32()
	m.base = r.u64()
	n := int(r.u32())
	if r.err == nil && n*flowWireLen != len(r.b) {
		return m, fmt.Errorf("cluster: flow batch length mismatch: %d flows, %d bytes", n, len(r.b))
	}
	m.flows = sc.readFlows(r, n)
	return m, r.done()
}

// readFlows decodes n flows whose bytes r is known to hold.
func (sc *flowScratch) readFlows(r *reader, n int) []ipfix.Flow {
	sc.flows = slices.Grow(sc.flows[:0], n)
	for i := 0; i < n && r.err == nil; i++ {
		sc.flows = append(sc.flows, r.flow())
	}
	return sc.flows
}

func (sc *flowScratch) decodeZ(body []byte) (flowsMsg, error) {
	r := &reader{b: body[1:]}
	var m flowsMsg
	m.shard = r.u32()
	m.base = r.u64()
	n := int(r.u32())
	rawLen := int(r.u32())
	comp := r.bytes()
	if err := r.done(); err != nil {
		return m, err
	}
	if n*flowWireLen != rawLen || rawLen > maxFrame {
		return m, fmt.Errorf("cluster: compressed flow batch claims %d flows, %d raw bytes", n, rawLen)
	}
	sc.raw.Reset()
	sc.raw.Grow(rawLen)
	zr := flateReaders.Get().(io.ReadCloser)
	zr.(flate.Resetter).Reset(bytes.NewReader(comp), nil)
	_, err := io.Copy(&sc.raw, io.LimitReader(zr, int64(rawLen)+1))
	if err == nil {
		zr.Close()
	}
	flateReaders.Put(zr)
	if err != nil {
		return m, fmt.Errorf("cluster: inflating flow batch: %w", err)
	}
	if sc.raw.Len() != rawLen {
		return m, fmt.Errorf("cluster: compressed flow batch inflated to %d bytes, want %d", sc.raw.Len(), rawLen)
	}
	fr := &reader{b: sc.raw.Bytes()}
	m.flows = sc.readFlows(fr, n)
	return m, fr.done()
}

// reportMsg is a worker's quiescent shard checkpoint. Cursor is the shard
// stream position the checkpoint incorporates (== its Processed count);
// final marks the drain report that completes a Revoke. Trace and reqNanos
// echo the soliciting request's span fields (zero for unsolicited reports),
// so the coordinator computes the round-trip on its own clock.
type reportMsg struct {
	shard      uint32
	final      bool
	trace      uint64
	reqNanos   int64
	cursor     uint64
	checkpoint []byte
}

// reportHeadLen is the fixed part of a report body, everything before the
// checkpoint's bytes: type, shard, final, trace, reqNanos, cursor, length.
const reportHeadLen = 1 + 4 + 1 + 8 + 8 + 8 + 4

// beginReport starts a report frame in b's storage: the length prefix and
// everything but the checkpoint, with the cursor and the checkpoint's length
// left zero. The worker appends the checkpoint's bytes straight after it —
// encoded where they ship from — and sealReport fills in what the snapshot
// only then knows. m.cursor and m.checkpoint are not read.
func beginReport(b []byte, m reportMsg) []byte {
	b = append(beginFrame(b), msgReport)
	b = appendU32(b, m.shard)
	if m.final {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendU64(b, m.trace)
	b = appendU64(b, uint64(m.reqNanos))
	b = appendU64(b, 0)    // cursor
	return appendU32(b, 0) // checkpoint length
}

// sealReport completes a frame that is beginReport's head followed by the
// checkpoint's bytes. (A frame past maxFrame is refused by writeSealed.)
func sealReport(frame []byte, cursor uint64) []byte {
	const head = frameHeadLen + reportHeadLen
	binary.BigEndian.PutUint64(frame[head-12:], cursor)
	binary.BigEndian.PutUint32(frame[head-4:], uint32(len(frame)-head))
	return sealFrame(frame)
}

// decodeReport decodes a report in place: m.checkpoint aliases body, which
// the caller must therefore own for as long as it keeps the checkpoint.
func decodeReport(body []byte) (reportMsg, error) {
	r := &reader{b: body[1:]}
	var m reportMsg
	m.shard = r.u32()
	m.final = r.u8() == 1
	m.trace = r.u64()
	m.reqNanos = int64(r.u64())
	m.cursor = r.u64()
	m.checkpoint = r.bytes()
	return m, r.done()
}

var heartbeatFrame = sealFrame(append(beginFrame(nil), msgHeartbeat))

// --- telemetry federation codec ---------------------------------------------

// Federation bounds: a snapshot is clamped to these limits at the sender, so
// a worker with a pathological registry degrades to partial telemetry
// instead of a giant control-plane frame. Journal events the cap pushes out
// of one frame ride in the next (the ack cursor only advances to what was
// actually sent).
const (
	telemetryMaxSamples = 1024
	telemetryMaxEvents  = 256
	telemetryMaxLabels  = 16
	telemetryMaxBounds  = 256
)

// wireSample is one federated metric instance: enough of the sample to
// re-register it on the coordinator (name, help, kind, labels) plus its
// current value or histogram snapshot.
type wireSample struct {
	name   string
	help   string
	kind   uint8 // 0 counter, 1 gauge, 2 histogram
	labels []obs.Label
	value  float64
	hist   obs.HistogramSnapshot
}

// telemetryMsg is a worker's periodic telemetry snapshot: metric samples
// (worker-labeled series only) and journal events since the last ack.
// journalStart identifies the journal generation — a restarted worker
// restarts Seq at 1, and the receiver tells a restart from a replay by the
// changed start timestamp. epochSeq reports which routing epoch the worker
// is classifying with, for the fleet status API.
type telemetryMsg struct {
	journalStart int64
	epochSeq     uint64
	samples      []wireSample
	events       []obs.Event
}

func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func encodeTelemetry(m telemetryMsg) []byte {
	if len(m.samples) > telemetryMaxSamples {
		m.samples = m.samples[:telemetryMaxSamples]
	}
	if len(m.events) > telemetryMaxEvents {
		m.events = m.events[:telemetryMaxEvents]
	}
	b := append(beginFrame(nil), msgTelemetry)
	b = appendU64(b, uint64(m.journalStart))
	b = appendU64(b, m.epochSeq)
	b = appendU32(b, uint32(len(m.samples)))
	for _, s := range m.samples {
		b = appendU32(b, uint32(len(s.name)))
		b = append(b, s.name...)
		b = appendU32(b, uint32(len(s.help)))
		b = append(b, s.help...)
		b = append(b, s.kind)
		labels := s.labels
		if len(labels) > telemetryMaxLabels {
			labels = labels[:telemetryMaxLabels]
		}
		b = appendU16(b, uint16(len(labels)))
		for _, l := range labels {
			b = appendU32(b, uint32(len(l.Name)))
			b = append(b, l.Name...)
			b = appendU32(b, uint32(len(l.Value)))
			b = append(b, l.Value...)
		}
		if s.kind == 2 {
			bounds := s.hist.Bounds
			counts := s.hist.Counts
			if len(bounds) > telemetryMaxBounds {
				bounds = bounds[:telemetryMaxBounds]
				counts = counts[:telemetryMaxBounds+1]
			}
			b = appendU16(b, uint16(len(bounds)))
			for _, v := range bounds {
				b = appendF64(b, v)
			}
			for _, c := range counts {
				b = appendU64(b, c)
			}
			b = appendU64(b, s.hist.Count)
			b = appendF64(b, s.hist.Sum)
		} else {
			b = appendF64(b, s.value)
		}
	}
	b = appendU32(b, uint32(len(m.events)))
	for _, e := range m.events {
		b = appendU64(b, e.Seq)
		b = appendU64(b, uint64(e.Wall.UnixNano()))
		b = appendU32(b, uint32(len(e.Kind)))
		b = append(b, e.Kind...)
		b = appendU32(b, uint32(len(e.Msg)))
		b = append(b, e.Msg...)
	}
	return sealFrame(b)
}

func decodeTelemetry(body []byte) (telemetryMsg, error) {
	r := &reader{b: body[1:]}
	var m telemetryMsg
	m.journalStart = int64(r.u64())
	m.epochSeq = r.u64()
	ns := int(r.u32())
	if ns > telemetryMaxSamples {
		return m, fmt.Errorf("cluster: telemetry frame claims %d samples", ns)
	}
	m.samples = make([]wireSample, 0, ns)
	for i := 0; i < ns && r.err == nil; i++ {
		var s wireSample
		s.name = string(r.bytes())
		s.help = string(r.bytes())
		s.kind = r.u8()
		nl := int(r.u16())
		if nl > telemetryMaxLabels {
			return m, fmt.Errorf("cluster: telemetry sample claims %d labels", nl)
		}
		s.labels = make([]obs.Label, 0, nl)
		for j := 0; j < nl && r.err == nil; j++ {
			var l obs.Label
			l.Name = string(r.bytes())
			l.Value = string(r.bytes())
			s.labels = append(s.labels, l)
		}
		if s.kind == 2 {
			nb := int(r.u16())
			if nb > telemetryMaxBounds {
				return m, fmt.Errorf("cluster: telemetry histogram claims %d bounds", nb)
			}
			if r.err == nil && (nb*8)*2+8 > len(r.b) {
				return m, io.ErrUnexpectedEOF
			}
			s.hist.Bounds = make([]float64, 0, nb)
			for j := 0; j < nb && r.err == nil; j++ {
				s.hist.Bounds = append(s.hist.Bounds, r.f64())
			}
			s.hist.Counts = make([]uint64, 0, nb+1)
			for j := 0; j < nb+1 && r.err == nil; j++ {
				s.hist.Counts = append(s.hist.Counts, r.u64())
			}
			s.hist.Count = r.u64()
			s.hist.Sum = r.f64()
		} else {
			s.value = r.f64()
		}
		m.samples = append(m.samples, s)
	}
	ne := int(r.u32())
	if ne > telemetryMaxEvents {
		return m, fmt.Errorf("cluster: telemetry frame claims %d events", ne)
	}
	m.events = make([]obs.Event, 0, ne)
	for i := 0; i < ne && r.err == nil; i++ {
		var e obs.Event
		e.Seq = r.u64()
		e.Wall = time.Unix(0, int64(r.u64())).UTC()
		e.Kind = string(r.bytes())
		e.Msg = string(r.bytes())
		m.events = append(m.events, e)
	}
	return m, r.done()
}

func encodeTelemetryAck(seq uint64) []byte {
	return sealFrame(appendU64(append(beginFrame(nil), msgTelemetryAck), seq))
}

func decodeTelemetryAck(body []byte) (uint64, error) {
	r := &reader{b: body[1:]}
	seq := r.u64()
	return seq, r.done()
}
