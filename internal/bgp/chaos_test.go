package bgp

import (
	"errors"
	"net"
	"testing"
	"time"

	"spoofscope/internal/faultnet"
)

// acceptSession runs a one-shot BGP responder on ln, pushing the established
// session (or nil on handshake failure) to the returned channel.
func acceptSession(ln net.Listener, cfg SessionConfig) <-chan *Session {
	ch := make(chan *Session, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			ch <- nil
			return
		}
		s, err := NewSession(conn, cfg)
		if err != nil {
			ch <- nil
			return
		}
		ch <- s
	}()
	return ch
}

func TestHoldTimeNegotiatedToMin(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	server := acceptSession(ln, SessionConfig{LocalAS: 2, LocalID: 2, HoldTime: 9 * time.Second})
	client, err := Dial(ln.Addr().String(), SessionConfig{LocalAS: 1, LocalID: 1, HoldTime: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	s := <-server
	if s == nil {
		t.Fatal("server handshake failed")
	}
	defer s.Close()
	// RFC 4271 §4.2: both sides must land on min(30s, 9s).
	if client.HoldTime() != 9*time.Second {
		t.Errorf("client negotiated %v", client.HoldTime())
	}
	if s.HoldTime() != 9*time.Second {
		t.Errorf("server negotiated %v", s.HoldTime())
	}
	if st := client.Stats(); st.HoldTime != 9*time.Second {
		t.Errorf("stats hold time %v", st.HoldTime)
	}
}

// TestRecvFailsWithinHoldTime stalls the transport with a faultnet schedule
// after the handshake; Recv must fail with ErrHoldExpired within roughly the
// negotiated hold time instead of hanging on the dead peer.
func TestRecvFailsWithinHoldTime(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	server := acceptSession(ln, SessionConfig{LocalAS: 2, LocalID: 2, HoldTime: time.Second})

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Handshake performs 3 reads (OPEN header+body, empty-bodied KEEPALIVE
	// header); stall every read after that — the peer has "gone silent".
	conn := faultnet.Wrap(raw, faultnet.Config{Seed: 3, StallAfterReads: 4})
	client, err := NewSession(conn, SessionConfig{LocalAS: 1, LocalID: 1, HoldTime: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if s := <-server; s != nil {
		defer s.Close()
	}

	start := time.Now()
	_, err = client.Recv()
	elapsed := time.Since(start)
	if !errors.Is(err, ErrHoldExpired) {
		t.Fatalf("Recv error = %v", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("hold expiry took %v for a 1s hold time", elapsed)
	}
	if st := conn.Stats(); st.Stalls == 0 {
		t.Fatal("fault schedule never stalled")
	}
}
