package ipfix

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"sync"
	"time"

	"spoofscope/internal/obs"
)

// TCPExporter streams IPFIX messages over a TCP connection (RFC 7011 §10.4:
// stream transports carry messages back to back; the length field frames
// them). Unlike UDP, templates need to be sent only once.
type TCPExporter struct {
	conn net.Conn
	w    *bufio.Writer
	enc  *Encoder
}

// NewTCPExporter wraps an established connection — the hook for fault
// injection and custom transports. DialTCP is the common path.
func NewTCPExporter(conn net.Conn, domain uint32) *TCPExporter {
	return &TCPExporter{
		conn: conn,
		w:    bufio.NewWriterSize(conn, 1<<16),
		enc:  NewEncoder(domain),
	}
}

// DialTCP connects an exporter to a TCP collector.
func DialTCP(addr string, domain uint32) (*TCPExporter, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ipfix: dialing %q: %w", addr, err)
	}
	return NewTCPExporter(conn, domain), nil
}

// Export appends flows to the stream.
func (e *TCPExporter) Export(exportTime time.Time, flows []Flow) error {
	for _, msg := range e.enc.Encode(exportTime, flows) {
		if _, err := e.w.Write(msg); err != nil {
			return err
		}
	}
	return e.w.Flush()
}

// Close flushes and closes the connection.
func (e *TCPExporter) Close() error {
	if err := e.w.Flush(); err != nil {
		e.conn.Close()
		return err
	}
	return e.conn.Close()
}

// CollectorStats aggregates a collector's transport-level health counters —
// what a deployment watches to tell "quiet feed" from "degraded feed".
type CollectorStats struct {
	// Connections counts accepted exporter connections (TCP only).
	Connections int
	// Flows counts flows handed to the callback, whole batches: a batch the
	// callback stops on still counts in full, since the callback saw all of it.
	Flows int
	// Malformed counts framed-but-undecodable messages (TCP) or datagrams
	// (UDP) that were skipped rather than fatal.
	Malformed int
	// Disconnects counts connections torn down by transport, framing, or
	// deadline errors rather than an orderly exporter close.
	Disconnects int
	// Messages, RecordsDecoded, and RecordsSkipped aggregate the decoder-
	// level counters across the collector's decoders: messages decoded, data
	// records delivered, and records dropped for unknown templates or short
	// reads.
	Messages       int
	RecordsDecoded int
	RecordsSkipped int
}

// TCPCollector accepts exporter connections and decodes their streams.
type TCPCollector struct {
	ln      net.Listener
	journal *obs.Journal // set by Instrument; nil = silent
	// IdleTimeout bounds per-message silence on a connection; a read that
	// exceeds it tears down that connection (counted as a disconnect).
	// Zero means no limit.
	IdleTimeout time.Duration

	mu     sync.Mutex
	fnMu   sync.Mutex
	wg     sync.WaitGroup
	conns  map[net.Conn]struct{}
	closed bool
	stats  CollectorStats
}

// ListenTCP binds a collector.
func ListenTCP(addr string) (*TCPCollector, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ipfix: listening on %q: %w", addr, err)
	}
	return &TCPCollector{ln: ln, conns: make(map[net.Conn]struct{})}, nil
}

// Addr returns the bound address.
func (c *TCPCollector) Addr() net.Addr { return c.ln.Addr() }

// Stats returns a snapshot of the collector's health counters.
func (c *TCPCollector) Stats() CollectorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// AcceptOneBatch accepts a single exporter connection and hands every
// decoded message's flows to fn as one slice, until the exporter closes or fn
// returns false. It returns the number of flows delivered and — the one call
// that does — that connection's framing error, if it ended on one.
// Malformed-but-framed messages are skipped and counted, matching the UDP
// collector's semantics. The slice is the connection's reused scratch —
// valid only for the duration of the call; copy (or queue by value, as
// IngestQueue does) to retain. fn returning false closes the connection
// after counting that whole batch.
func (c *TCPCollector) AcceptOneBatch(fn func([]Flow) bool) (int, error) {
	conn, err := c.ln.Accept()
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	c.mu.Lock()
	c.stats.Connections++
	c.mu.Unlock()
	dec := NewDecoder()
	n, malformed, err := serveStream(conn, dec, c.IdleTimeout, fn)
	c.finishStream(conn, dec, n, malformed, err)
	return n, err
}

// finishStream folds one connection's outcome — flow/malformed counts, the
// per-connection decoder's counters, and the disconnect verdict — into the
// collector's stats, and journals transport failures when instrumented.
func (c *TCPCollector) finishStream(conn net.Conn, dec *Decoder, n, malformed int, err error) {
	c.mu.Lock()
	delete(c.conns, conn)
	c.stats.Flows += n
	c.stats.Malformed += malformed
	c.stats.Messages += dec.Messages
	c.stats.RecordsDecoded += dec.RecordsDecoded
	c.stats.RecordsSkipped += dec.RecordsSkipped
	closed := c.closed
	if err != nil {
		c.stats.Disconnects++
	}
	c.mu.Unlock()
	if err != nil && !closed {
		c.journal.Recordf(obs.EventCollectorError,
			"tcp connection from %s failed after %d flows: %v", conn.RemoteAddr(), n, err)
	}
}

// ServeBatch accepts exporter connections until Close or Shutdown, handing
// every decoded message's flows to fn as one slice — the hand-off a
// LiveRuntime's IngestBatch wants, one queue wake per IPFIX message instead
// of per record. Connections are handled concurrently (one goroutine each,
// labelled stage=decode for profilers) but fn is invoked serially, so it
// needs no locking; the slice is that connection's reused scratch — valid
// only for the duration of the call; copy or queue by value to retain. fn
// returning false closes that one connection. A connection that fails only
// bumps the Disconnects counter — the collector keeps serving the rest.
// ServeBatch returns nil after a shutdown, once every in-flight connection
// handler has drained.
func (c *TCPCollector) ServeBatch(fn func([]Flow) bool) error {
	deliver := func(batch []Flow) bool {
		c.fnMu.Lock()
		defer c.fnMu.Unlock()
		return fn(batch)
	}
	defer c.wg.Wait()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c.mu.Lock()
		c.stats.Connections++
		c.conns[conn] = struct{}{}
		c.mu.Unlock()
		c.wg.Add(1)
		go func(conn net.Conn) {
			defer c.wg.Done()
			defer conn.Close()
			pprof.Do(context.Background(), pprof.Labels("stage", "decode"), func(context.Context) {
				dec := NewDecoder()
				n, malformed, err := serveStream(conn, dec, c.IdleTimeout, deliver)
				c.finishStream(conn, dec, n, malformed, err)
			})
		}(conn)
	}
}

// Close stops accepting and aborts the active connections; ServeBatch returns
// once their handlers drain. Use Shutdown to let exporters finish instead.
func (c *TCPCollector) Close() error {
	c.mu.Lock()
	c.closed = true
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	err := c.ln.Close()
	for _, conn := range conns {
		conn.Close()
	}
	return err
}

// Shutdown stops accepting new connections and waits for the active ones to
// end naturally (exporter close or idle timeout) — the graceful counterpart
// of Close. It must not be called from inside the ServeBatch callback.
func (c *TCPCollector) Shutdown() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	err := c.ln.Close()
	c.wg.Wait()
	return err
}

// readDeadliner is the subset of net.Conn serveStream needs for idle
// timeouts; plain io.Readers (tests, files) simply run without deadlines.
type readDeadliner interface {
	SetReadDeadline(t time.Time) error
}

// streamScratch is one connection's reusable decode buffers: the framed
// message bytes and the flow batch the decoder appends into. Pooled across
// connections so a collector serving short-lived exporter sessions reaches
// steady state with zero per-message allocations — the buffers grow to the
// feed's message size once and then recirculate.
type streamScratch struct {
	msg   []byte
	flows []Flow
}

var scratchPool = sync.Pool{New: func() any {
	return &streamScratch{msg: make([]byte, 1<<16), flows: make([]Flow, 0, 256)}
}}

// serveStream decodes back-to-back IPFIX messages from a byte stream into
// dec (one decoder per connection: templates are per-stream state), handing
// each message's flows to deliver as one batch. The batch slice is pooled
// scratch reused for the next message — deliver must consume or copy it
// before returning; a batch it stops the stream on still counts in n in
// full. A message that frames correctly but fails to decode is skipped and
// counted in malformed — one bad export must not tear down the feed. Only a framing failure (garbage length, short read, deadline) ends
// the stream with an error, because message boundaries are lost at that
// point. The caller owns dec and harvests its counters after the stream
// ends.
func serveStream(r io.Reader, dec *Decoder, idle time.Duration, deliver func([]Flow) bool) (n, malformed int, err error) {
	rd, hasDeadline := r.(readDeadliner)
	br := bufio.NewReaderSize(r, 1<<16)
	sc := scratchPool.Get().(*streamScratch)
	defer scratchPool.Put(sc)
	for {
		if hasDeadline && idle > 0 {
			if err := rd.SetReadDeadline(time.Now().Add(idle)); err != nil {
				return n, malformed, err
			}
		}
		// The header reads into the scratch buffer's prefix (a stack array
		// would escape through io.ReadFull and cost one heap allocation per
		// message); the body then lands right behind it.
		hdr := sc.msg[:msgHeaderLen]
		if _, err := io.ReadFull(br, hdr); err != nil {
			if err == io.EOF {
				return n, malformed, nil
			}
			return n, malformed, err
		}
		total := int(binary.BigEndian.Uint16(hdr[2:]))
		if total < msgHeaderLen {
			return n, malformed, fmt.Errorf("ipfix: bad stream message length %d", total)
		}
		if cap(sc.msg) < total {
			grown := make([]byte, total)
			copy(grown, hdr)
			sc.msg = grown
		}
		msg := sc.msg[:total]
		if _, err := io.ReadFull(br, msg[msgHeaderLen:]); err != nil {
			return n, malformed, err
		}
		var derr error
		sc.flows, derr = dec.AppendFlows(msg, sc.flows[:0])
		if derr != nil {
			// The length field framed the message, so the stream is still
			// in sync: skip it and keep serving.
			malformed++
			continue
		}
		if len(sc.flows) == 0 {
			continue // template-only message
		}
		n += len(sc.flows)
		if !deliver(sc.flows) {
			return n, malformed, nil
		}
	}
}
