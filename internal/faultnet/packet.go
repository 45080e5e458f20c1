package faultnet

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// PacketConfig is a deterministic fault schedule for one datagram socket —
// the UDP analogue of Config. Stream faults (partial writes, mid-message
// resets) make no sense for datagrams; the faults that do exist in the wild
// are loss, duplication, and corruption, and all three are keyed to the
// receive-side datagram count so a schedule replays identically.
type PacketConfig struct {
	// Seed drives the RNG that picks corruption positions. Equal seeds and
	// equal datagram sequences produce byte-identical faults.
	Seed int64

	// DropEvery N > 0 silently discards every Nth received datagram (the
	// 1st, N+1th, ... are kept when N > 1; exactly the datagrams whose
	// 1-based receive index is a multiple of N are dropped). The reader
	// never sees them — loss, as UDP delivers it.
	DropEvery int

	// DuplicateEvery N > 0 delivers every Nth received datagram twice: once
	// normally, and once again on the following ReadFrom call. The replayed
	// copy does not advance the receive index (it is not a new read).
	DuplicateEvery int

	// CorruptEvery N > 0 corrupts every Nth received datagram by
	// XOR-flipping one seeded-random byte among the first four — the IPFIX
	// version/length header region, where the decoder detects damage.
	CorruptEvery int
}

// PacketStats counts the faults a wrapped socket actually injected.
type PacketStats struct {
	// Datagrams counts datagrams received from the inner socket (dropped
	// and corrupted ones included; duplicate deliveries excluded).
	Datagrams  int
	Dropped    int
	Duplicated int
	Corrupted  int
}

// PacketConn wraps a net.PacketConn with a receive-side fault schedule, so
// the UDP IPFIX collector gets the same chaos coverage the TCP paths get
// from Conn: hand the wrapped socket to ipfix.NewUDPCollector and every
// resilience claim about datagram loss, duplication, and corruption can be
// proven offline with a reproducible schedule.
type PacketConn struct {
	inner net.PacketConn
	cfg   PacketConfig

	mu    sync.Mutex
	rng   *rand.Rand
	stats PacketStats
	// replay holds the pending duplicate delivery (nil = none).
	replay     []byte
	replayAddr net.Addr
}

// WrapPacket applies a fault schedule to pc. The wrapper owns pc: closing
// the wrapper closes it.
func WrapPacket(pc net.PacketConn, cfg PacketConfig) *PacketConn {
	return &PacketConn{
		inner: pc,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Stats returns a snapshot of the injected-fault counters.
func (p *PacketConn) Stats() PacketStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ReadFrom delivers the next datagram under the fault schedule: pending
// duplicates first, then inner datagrams with drops consumed silently and
// corruption applied in place.
func (p *PacketConn) ReadFrom(b []byte) (int, net.Addr, error) {
	p.mu.Lock()
	if p.replay != nil {
		n := copy(b, p.replay)
		addr := p.replayAddr
		p.replay, p.replayAddr = nil, nil
		p.mu.Unlock()
		return n, addr, nil
	}
	p.mu.Unlock()

	for {
		n, addr, err := p.inner.ReadFrom(b)
		if err != nil {
			return n, addr, err
		}
		p.mu.Lock()
		p.stats.Datagrams++
		nth := p.stats.Datagrams
		if p.cfg.DropEvery > 0 && nth%p.cfg.DropEvery == 0 {
			p.stats.Dropped++
			p.mu.Unlock()
			continue
		}
		if p.cfg.CorruptEvery > 0 && nth%p.cfg.CorruptEvery == 0 && n > 0 {
			pos := n
			if pos > 4 {
				pos = 4
			}
			b[p.rng.Intn(pos)] ^= 0xff
			p.stats.Corrupted++
		}
		if p.cfg.DuplicateEvery > 0 && nth%p.cfg.DuplicateEvery == 0 {
			p.replay = append([]byte(nil), b[:n]...)
			p.replayAddr = addr
			p.stats.Duplicated++
		}
		p.mu.Unlock()
		return n, addr, nil
	}
}

// WriteTo passes through to the inner socket (faults are receive-side; a
// sender-side schedule would be indistinguishable from one on the
// receiver, so only one side carries it).
func (p *PacketConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	return p.inner.WriteTo(b, addr)
}

// Close closes the inner socket.
func (p *PacketConn) Close() error { return p.inner.Close() }

// LocalAddr returns the inner socket's address.
func (p *PacketConn) LocalAddr() net.Addr { return p.inner.LocalAddr() }

func (p *PacketConn) SetDeadline(t time.Time) error      { return p.inner.SetDeadline(t) }
func (p *PacketConn) SetReadDeadline(t time.Time) error  { return p.inner.SetReadDeadline(t) }
func (p *PacketConn) SetWriteDeadline(t time.Time) error { return p.inner.SetWriteDeadline(t) }

var _ net.PacketConn = (*PacketConn)(nil)

// String renders the schedule for test failure messages.
func (p *PacketConn) String() string {
	return fmt.Sprintf("faultnet.PacketConn{drop=%d dup=%d corrupt=%d}",
		p.cfg.DropEvery, p.cfg.DuplicateEvery, p.cfg.CorruptEvery)
}
