// Package cluster shards live classification across worker processes.
//
// A Coordinator owns the flow source and the routing feed; Workers own
// disjoint ingress-member shards (stable hash of the ingress port, so a
// member's traffic always lands on the same shard). A worker classifies each
// flow frame with its compiled pipeline's ClassifyBatch and folds the
// verdicts into the shard's aggregate under the worker's lock, in the
// session's read loop: it runs no ingest queue and no drain. The
// coordinator distributes
// RIB epochs (fingerprint-gated, so an unchanged table ships a few bytes),
// folds worker reports through the order-independent aggregate merge, and
// survives worker crashes by reassigning a dead worker's shards from their
// last acknowledged checkpoint plus a replay buffer — no flow is counted
// twice and none is lost.
//
// The wire protocol in this file is deliberately minimal: length-prefixed
// frames over any net.Conn, so tests can run it over net.Pipe and wrap it
// in faultnet schedules. Frames carry fixed-width big-endian scalars, read
// back through the netx.Cursor the checkpoint codec reads with (a flow
// frame's fixed-size records from fixed offsets), so every encoding is
// canonical and replayable.
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
	"slices"
	"sync"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/core"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
)

// Message types. The one-byte tag leads every frame body.
const (
	msgHello     = 1  // worker → coordinator: authenticated identity
	msgEpoch     = 2  // coordinator → worker: routing state (full or bump)
	msgAssign    = 3  // coordinator → worker: shard ownership + resume state
	msgRevoke    = 4  // coordinator → worker: drain shard, send final report
	msgFlows     = 5  // coordinator → worker: a batch of shard flows
	msgReportReq = 6  // coordinator → worker: request a quiescent report
	msgReport    = 7  // worker → coordinator: shard checkpoint
	msgHeartbeat = 8  // both directions: liveness
	msgChallenge = 9  // coordinator → worker: auth nonce, first frame on a conn
	msgFlowsZ    = 10 // coordinator → worker: a flate-compressed flow batch
	// 11 and 12 are retired (they carried worker telemetry up to the
	// coordinator); do not reuse them.
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

// readFrame reads one frame body. The body lands in buf's storage when that
// is large enough and in a fresh allocation otherwise; a read loop that is
// done with each body before the next read passes the last body back (a
// stack header would escape through io.ReadFull, so the length prefix is read
// into the same storage), and one that keeps bodies passes nil.
func readFrame(c io.Reader, buf []byte) ([]byte, error) {
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

// reader consumes a frame body or a ledger through the one decode cursor the
// checkpoint codec reads with.
type reader struct{ netx.Cursor }

func newReader(b []byte) *reader { return &reader{netx.NewCursor(b)} }

// bytes reads a u32-length-prefixed field, aliasing the input.
func (r *reader) bytes() []byte { return r.Take(int(r.U32())) }

func (r *reader) done() error {
	if err := r.Err(); err != nil {
		return err
	}
	if r.Len() != 0 {
		return fmt.Errorf("cluster: %d trailing bytes in frame", r.Len())
	}
	return nil
}

// --- flow codec ------------------------------------------------------------

// A flow travels, and waits in the coordinator's replay buffer, as one
// flowWireLen-byte record: fixed offsets, big-endian. appendFlow writes the
// record and flowAt reads it back; the ledger embeds the records verbatim.

// appendFlow appends f's wire record to b.
func appendFlow(b []byte, f *ipfix.Flow) []byte {
	b = slices.Grow(b, flowWireLen)
	r := b[len(b) : len(b)+flowWireLen]
	binary.BigEndian.PutUint64(r[0:], uint64(f.Start.UnixNano()))
	binary.BigEndian.PutUint32(r[8:], uint32(f.SrcAddr))
	binary.BigEndian.PutUint32(r[12:], uint32(f.DstAddr))
	binary.BigEndian.PutUint16(r[16:], f.SrcPort)
	binary.BigEndian.PutUint16(r[18:], f.DstPort)
	r[20], r[21] = f.Protocol, f.TCPFlags
	binary.BigEndian.PutUint64(r[22:], f.Packets)
	binary.BigEndian.PutUint64(r[30:], f.Bytes)
	binary.BigEndian.PutUint32(r[38:], f.Ingress)
	binary.BigEndian.PutUint32(r[42:], f.Egress)
	return b[:len(b)+flowWireLen]
}

// flowAt decodes the record at the front of r, which holds at least one.
func flowAt(r []byte) ipfix.Flow {
	r = r[:flowWireLen]
	return ipfix.Flow{
		Start:    time.Unix(0, int64(binary.BigEndian.Uint64(r[0:]))).UTC(),
		SrcAddr:  netx.Addr(binary.BigEndian.Uint32(r[8:])),
		DstAddr:  netx.Addr(binary.BigEndian.Uint32(r[12:])),
		SrcPort:  binary.BigEndian.Uint16(r[16:]),
		DstPort:  binary.BigEndian.Uint16(r[18:]),
		Protocol: r[20],
		TCPFlags: r[21],
		Packets:  binary.BigEndian.Uint64(r[22:]),
		Bytes:    binary.BigEndian.Uint64(r[30:]),
		Ingress:  binary.BigEndian.Uint32(r[38:]),
		Egress:   binary.BigEndian.Uint32(r[42:]),
	}
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
	r := newReader(body[1:])
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
	r := newReader(body[1:])
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

// epochStampOffset is the byte offset of the seq+trace+shipNanos triple in
// an encoded epoch body: [type][seq u64][trace u64][ship i64].... The
// coordinator caches the latest full epoch's body for late joiners (and in
// the ledger) and re-stamps these 24 bytes per send: the sequence, because
// bumps since that full epoch leave its tables current but its sequence
// stale; the trace and ship time, so a joiner's propagation span measures
// its own delivery, not the original distribution's.
const epochStampOffset = 1

// stampEpochFrame copies a cached epoch body into a wire-ready frame of its
// own, re-stamped.
func stampEpochFrame(body []byte, seq, trace uint64, shipNanos int64) []byte {
	out := append(beginFrame(make([]byte, 0, frameHeadLen+len(body))), body...)
	at := out[frameHeadLen+epochStampOffset:]
	binary.BigEndian.PutUint64(at, seq)
	binary.BigEndian.PutUint64(at[8:], trace)
	binary.BigEndian.PutUint64(at[16:], uint64(shipNanos))
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
	r := newReader(body[1:])
	var m epochMsg
	m.seq = r.U64()
	m.trace = r.U64()
	m.shipNanos = int64(r.U64())
	m.full = r.Bool("epoch full")
	if !m.full {
		return m, r.done()
	}
	nm := r.Fits("epoch member", r.U32(), 8)
	m.members = make([]core.MemberInfo, 0, nm)
	for range nm {
		m.members = append(m.members, core.MemberInfo{ASN: bgp.ASN(r.U32()), Port: r.U32()})
	}
	na := r.Fits("epoch announcement", r.U32(), 7)
	m.anns = make([]bgp.Announcement, 0, na)
	for i := 0; i < na && r.Err() == nil; i++ {
		var a bgp.Announcement
		a.Prefix = netx.Prefix{Addr: netx.Addr(r.U32()), Bits: r.U8()}
		np := r.Fits("AS path", uint32(r.U16()), 4)
		a.Path = make([]bgp.ASN, 0, np)
		for range np {
			a.Path = append(a.Path, bgp.ASN(r.U32()))
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
	r := newReader(body[1:])
	var m assignMsg
	m.shard = r.U32()
	m.trace = r.U64()
	m.cursor = r.U64()
	m.startNanos = int64(r.U64())
	m.bucket = int64(r.U64())
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
	r := newReader(body[1:])
	var m shardCtrlMsg
	m.shard = r.U32()
	m.trace = r.U64()
	m.nanos = int64(r.U64())
	return m, r.done()
}

// flowsMsg is a decoded batch of flows for one shard. Base is the stream
// position of the first flow — the worker checks it against its own cursor,
// so a dropped or replayed batch is detected immediately instead of
// corrupting the count.
type flowsMsg struct {
	shard uint32
	base  uint64
	flows []ipfix.Flow
}

// appendFlows appends the frame body carrying recs — whole flow records, the
// first at stream position base — for shard to b.
func appendFlows(b []byte, shard uint32, base uint64, recs []byte) []byte {
	b = slices.Grow(b, 1+4+8+4+len(recs))
	b = append(b, msgFlows)
	b = appendU32(b, shard)
	b = appendU64(b, base)
	b = appendU32(b, uint32(len(recs)/flowWireLen))
	return append(b, recs...)
}

// Deflate state is expensive to build (the writer alone is ~1MB of window
// and hash tables), so both ends keep it: the coordinator's one deflater
// owns its writer, the workers' read loops share readers through a pool. At
// small frame batches the per-frame constructor cost would otherwise
// dominate the transport.
var flateReaders = sync.Pool{New: func() any {
	return flate.NewReader(bytes.NewReader(nil))
}}

// flowDeflater is the compressed variant's encode state: the deflated bytes
// and the deflate writer, reused from frame to frame by the one goroutine
// that owns it. The zero value is ready to use.
type flowDeflater struct {
	z  bytes.Buffer
	zw *flate.Writer
}

// appendFlowsZ is appendFlows with the records deflated in one
// length-prefixed block. Flow records share most of their bytes (timestamps,
// prefixes, zero padding), so batches compress well; the raw length travels
// alongside so the decoder can preflight its allocation.
func (d *flowDeflater) appendFlowsZ(b []byte, shard uint32, base uint64, recs []byte) []byte {
	d.z.Reset()
	if d.zw == nil {
		d.zw, _ = flate.NewWriter(&d.z, flate.DefaultCompression) // the level is valid: no error
	} else {
		d.zw.Reset(&d.z)
	}
	d.zw.Write(recs)
	d.zw.Close()
	b = append(b, msgFlowsZ)
	b = appendU32(b, shard)
	b = appendU64(b, base)
	b = appendU32(b, uint32(len(recs)/flowWireLen))
	b = appendU32(b, uint32(len(recs)))
	b = appendU32(b, uint32(d.z.Len()))
	return append(b, d.z.Bytes()...)
}

// flowScratch is decode storage a read loop owns and lends to every flow
// frame: the decoded flows — and, for a compressed frame, the inflated bytes —
// land in it, so the returned message is valid only until the next decode.
// The worker classifies and aggregates a frame's flows before it reads the
// next, which is all the lifetime it needs. The zero value is ready to use.
type flowScratch struct {
	flows []ipfix.Flow
	raw   bytes.Buffer
}

func (sc *flowScratch) decode(body []byte) (flowsMsg, error) {
	if body[0] == msgFlowsZ {
		return sc.decodeZ(body)
	}
	r := newReader(body[1:])
	var m flowsMsg
	m.shard = r.U32()
	m.base = r.U64()
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return m, err
	}
	if n*flowWireLen != r.Len() {
		return m, fmt.Errorf("cluster: flow batch length mismatch: %d flows, %d bytes", n, r.Len())
	}
	m.flows = sc.readFlows(r.Take(r.Len()))
	return m, nil
}

// readFlows decodes recs, a whole number of flow records, in one pass.
func (sc *flowScratch) readFlows(recs []byte) []ipfix.Flow {
	sc.flows = slices.Grow(sc.flows[:0], len(recs)/flowWireLen)
	for len(recs) >= flowWireLen {
		sc.flows = append(sc.flows, flowAt(recs))
		recs = recs[flowWireLen:]
	}
	return sc.flows
}

func (sc *flowScratch) decodeZ(body []byte) (flowsMsg, error) {
	r := newReader(body[1:])
	var m flowsMsg
	m.shard = r.U32()
	m.base = r.U64()
	n := int(r.U32())
	rawLen := int(r.U32())
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
	m.flows = sc.readFlows(sc.raw.Bytes())
	return m, nil
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
	r := newReader(body[1:])
	var m reportMsg
	m.shard = r.U32()
	m.final = r.Bool("report final")
	m.trace = r.U64()
	m.reqNanos = int64(r.U64())
	m.cursor = r.U64()
	m.checkpoint = r.bytes()
	return m, r.done()
}

var heartbeatFrame = sealFrame(append(beginFrame(nil), msgHeartbeat))
