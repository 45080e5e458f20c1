package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spoofscope/internal/netx"
)

// ErrHoldExpired is returned by Recv when the negotiated hold time passes
// without any message from the peer (RFC 4271 §6.5). The transport may still
// be "up" at the TCP level; the peer is considered dead regardless.
var ErrHoldExpired = errors.New("bgp: hold timer expired")

// Message type codes (RFC 4271 §4.1).
const (
	msgTypeOpen         = 1
	msgTypeNotification = 3
	msgTypeKeepalive    = 4
)

// asTrans is the 2-byte AS placeholder for 4-byte AS numbers (RFC 6793).
const asTrans = 23456

// SessionConfig parameterizes a BGP speaker.
type SessionConfig struct {
	LocalAS ASN
	LocalID netx.Addr
	// HoldTime is the hold time we propose in our OPEN (default 90s). The
	// session runs at min(proposed, peer's proposal) per RFC 4271 §4.2;
	// keepalives are paced at a third of the negotiated value and Recv
	// enforces it as a read deadline. The wire granularity is whole seconds
	// (sub-second values round up).
	HoldTime time.Duration
	// HandshakeTimeout bounds the OPEN/KEEPALIVE exchange (default 10s), so
	// a peer that connects and goes silent cannot wedge NewSession forever.
	HandshakeTimeout time.Duration
}

func (c *SessionConfig) holdTime() time.Duration {
	if c.HoldTime <= 0 {
		return 90 * time.Second
	}
	return c.HoldTime
}

// wireHoldTime is the whole-second hold time we propose on the wire.
func (c *SessionConfig) wireHoldTime() uint16 {
	secs := (c.holdTime() + time.Second - 1) / time.Second
	if secs > 0xffff {
		secs = 0xffff
	}
	return uint16(secs)
}

func (c *SessionConfig) handshakeTimeout() time.Duration {
	if c.HandshakeTimeout <= 0 {
		return 10 * time.Second
	}
	return c.HandshakeTimeout
}

// SessionStats is a snapshot of a session's message counters.
type SessionStats struct {
	// HoldTime is the negotiated hold time (0 = keepalives disabled).
	HoldTime     time.Duration
	UpdatesIn    int64
	UpdatesOut   int64
	KeepalivesIn int64
	// KeepalivesOut counts the confirmation keepalive plus timer-driven ones.
	KeepalivesOut int64
}

// Session is an established BGP-4 session over a reliable transport. Both
// sides run the same code (the protocol is symmetric after TCP setup).
// Send and Recv are safe to use from different goroutines, but each is not
// itself concurrency-safe.
type Session struct {
	conn     net.Conn
	cfg      SessionConfig
	peerAS   ASN
	holdTime time.Duration // negotiated; 0 disables keepalives and deadlines

	updatesIn, updatesOut       atomic.Int64
	keepalivesIn, keepalivesOut atomic.Int64

	writeMu   sync.Mutex
	closeOnce sync.Once
	closed    chan struct{}
	keepDone  chan struct{}
}

// NewSession performs the OPEN/KEEPALIVE handshake on conn and starts the
// keepalive timer. The whole exchange runs under HandshakeTimeout. The caller
// keeps ownership of conn only for address introspection; Close closes it.
func NewSession(conn net.Conn, cfg SessionConfig) (*Session, error) {
	s := &Session{
		conn:     conn,
		cfg:      cfg,
		closed:   make(chan struct{}),
		keepDone: make(chan struct{}),
	}
	if err := conn.SetDeadline(time.Now().Add(cfg.handshakeTimeout())); err != nil {
		conn.Close()
		return nil, fmt.Errorf("bgp: arming handshake deadline: %w", err)
	}
	if err := s.writeMessage(msgTypeOpen, s.openBody()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("bgp: sending OPEN: %w", err)
	}
	// Expect the peer's OPEN.
	typ, body, err := readMessage(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("bgp: awaiting OPEN: %w", err)
	}
	if typ != msgTypeOpen {
		conn.Close()
		return nil, fmt.Errorf("bgp: expected OPEN, got type %d", typ)
	}
	if err := s.parseOpen(body); err != nil {
		s.notify(2, 0) // OPEN message error
		conn.Close()
		return nil, err
	}
	// Confirm with a KEEPALIVE and await the peer's.
	if err := s.writeMessage(msgTypeKeepalive, nil); err != nil {
		conn.Close()
		return nil, err
	}
	s.keepalivesOut.Add(1)
	typ, _, err = readMessage(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("bgp: awaiting KEEPALIVE: %w", err)
	}
	if typ != msgTypeKeepalive {
		conn.Close()
		return nil, fmt.Errorf("bgp: expected KEEPALIVE, got type %d", typ)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("bgp: clearing handshake deadline: %w", err)
	}
	go s.keepaliveLoop()
	return s, nil
}

// Dial connects to a BGP speaker and establishes a session.
func Dial(addr string, cfg SessionConfig) (*Session, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewSession(conn, cfg)
}

// PeerAS returns the negotiated peer AS number.
func (s *Session) PeerAS() ASN { return s.peerAS }

// HoldTime returns the negotiated hold time: min(ours, peer's), in whole
// seconds. Zero means the peers agreed to run without keepalives, and Recv
// never times out.
func (s *Session) HoldTime() time.Duration { return s.holdTime }

// Stats returns a snapshot of the session's message counters.
func (s *Session) Stats() SessionStats {
	return SessionStats{
		HoldTime:      s.holdTime,
		UpdatesIn:     s.updatesIn.Load(),
		UpdatesOut:    s.updatesOut.Load(),
		KeepalivesIn:  s.keepalivesIn.Load(),
		KeepalivesOut: s.keepalivesOut.Load(),
	}
}

// openBody builds our OPEN message body with the 4-octet-AS capability.
func (s *Session) openBody() []byte {
	b := make([]byte, 0, 20)
	b = append(b, 4) // version
	as2 := uint16(asTrans)
	if s.cfg.LocalAS <= 0xffff {
		as2 = uint16(s.cfg.LocalAS)
	}
	b = binary.BigEndian.AppendUint16(b, as2)
	b = binary.BigEndian.AppendUint16(b, s.cfg.wireHoldTime())
	b = binary.BigEndian.AppendUint32(b, uint32(s.cfg.LocalID))
	// Optional parameter: capabilities (type 2) with 4-octet AS (code 65).
	cap4 := make([]byte, 0, 8)
	cap4 = append(cap4, 65, 4)
	cap4 = binary.BigEndian.AppendUint32(cap4, uint32(s.cfg.LocalAS))
	b = append(b, byte(2+len(cap4))) // opt params length
	b = append(b, 2, byte(len(cap4)))
	b = append(b, cap4...)
	return b
}

func (s *Session) parseOpen(b []byte) error {
	c := netx.NewCursor(b)
	version, as2, hold := c.U8(), c.U16(), c.U16()
	c.U32() // the peer's BGP identifier, which nothing reads
	params := c.Sub(int(c.U8()))
	switch {
	case c.Err() != nil:
		return fmt.Errorf("bgp: OPEN: %w", c.Err())
	case version != 4:
		return fmt.Errorf("bgp: unsupported BGP version %d", version)
	}
	s.peerAS = ASN(as2)
	// RFC 4271 §4.2: the session's hold time is the smaller of the two
	// proposals; compare on the wire values so both sides agree exactly.
	s.holdTime = min(time.Duration(s.cfg.wireHoldTime()), time.Duration(hold)) * time.Second
	// A trailing byte too short for a parameter or capability header is
	// ignored.
	for params.Err() == nil && params.Len() >= 2 {
		ptype, caps := params.U8(), params.Sub(int(params.U8()))
		for ptype == 2 && caps.Err() == nil && caps.Len() >= 2 { // capabilities
			code, val := caps.U8(), caps.Sub(int(caps.U8()))
			if code == 65 && val.Len() == 4 { // 4-octet AS
				s.peerAS = ASN(val.U32())
			}
		}
		params.Fail(caps.Err())
	}
	if err := params.Err(); err != nil {
		return fmt.Errorf("bgp: OPEN: %w", err)
	}
	return nil
}

func (s *Session) keepaliveLoop() {
	defer close(s.keepDone)
	if s.holdTime <= 0 {
		// Negotiated hold time 0: no keepalives on this session (RFC 4271).
		<-s.closed
		return
	}
	t := time.NewTicker(s.holdTime / 3)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
			if err := s.writeMessage(msgTypeKeepalive, nil); err != nil {
				return
			}
			s.keepalivesOut.Add(1)
		}
	}
}

// Send transmits an UPDATE.
func (s *Session) Send(u *Update) error {
	msg, err := u.Marshal()
	if err != nil {
		return err
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if _, err = s.conn.Write(msg); err != nil {
		return err
	}
	s.updatesOut.Add(1)
	return nil
}

// Recv blocks for the next UPDATE, transparently absorbing keepalives. It
// enforces the negotiated hold timer: if the peer stays silent past it, Recv
// fails with ErrHoldExpired instead of hanging on a dead transport. It
// returns io.EOF only for an orderly shutdown (the peer's CEASE
// notification); a transport that dies without one surfaces as an error.
func (s *Session) Recv() (*Update, error) {
	for {
		if s.holdTime > 0 {
			if err := s.conn.SetReadDeadline(time.Now().Add(s.holdTime)); err != nil {
				return nil, err
			}
		}
		typ, body, err := readMessage(s.conn)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				s.notify(4, 0) // hold timer expired
				return nil, fmt.Errorf("%w (%v without a message)", ErrHoldExpired, s.holdTime)
			}
			if err == io.EOF {
				// TCP closed with no CEASE: a peer failure, not a shutdown.
				return nil, fmt.Errorf("bgp: transport closed without CEASE: %w", io.ErrUnexpectedEOF)
			}
			return nil, err
		}
		switch typ {
		case msgTypeKeepalive:
			s.keepalivesIn.Add(1)
			continue
		case msgTypeUpdate:
			s.updatesIn.Add(1)
			// Re-frame the body into a full message for UnmarshalUpdate.
			msg := frameMessage(msgTypeUpdate, body)
			return UnmarshalUpdate(msg)
		case msgTypeNotification:
			if len(body) >= 1 && body[0] == 6 { // CEASE
				return nil, io.EOF
			}
			code := byte(0)
			if len(body) > 0 {
				code = body[0]
			}
			return nil, fmt.Errorf("bgp: peer NOTIFICATION code %d", code)
		default:
			return nil, fmt.Errorf("bgp: unexpected message type %d", typ)
		}
	}
}

// Close sends a CEASE notification (best effort) and closes the transport.
func (s *Session) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		s.notify(6, 0) // CEASE
		err = s.conn.Close()
		<-s.keepDone
	})
	return err
}

func (s *Session) notify(code, sub byte) {
	_ = s.writeMessage(msgTypeNotification, []byte{code, sub})
}

func (s *Session) writeMessage(typ byte, body []byte) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	_, err := s.conn.Write(frameMessage(typ, body))
	return err
}

// frameMessage wraps a body in the BGP message header.
func frameMessage(typ byte, body []byte) []byte {
	msg := make([]byte, headerLen+len(body))
	for i := 0; i < 16; i++ {
		msg[i] = 0xff
	}
	binary.BigEndian.PutUint16(msg[16:], uint16(headerLen+len(body)))
	msg[18] = typ
	copy(msg[headerLen:], body)
	return msg
}

// readMessage reads one framed BGP message from r, validating the marker.
func readMessage(r io.Reader) (typ byte, body []byte, err error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if !isMarker(hdr[:16]) {
		return 0, nil, errors.New("bgp: bad message marker")
	}
	total := int(binary.BigEndian.Uint16(hdr[16:18]))
	if total < headerLen || total > maxMsgLen {
		return 0, nil, fmt.Errorf("bgp: bad message length %d", total)
	}
	body = make([]byte, total-headerLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return hdr[18], body, nil
}
