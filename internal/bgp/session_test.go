package bgp

import (
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"spoofscope/internal/netx"
)

// sessionPair establishes two ends of a BGP session over loopback TCP.
func sessionPair(t *testing.T, asA, asB ASN) (*Session, *Session) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type result struct {
		s   *Session
		err error
	}
	ch := make(chan result, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			ch <- result{nil, err}
			return
		}
		s, err := NewSession(conn, SessionConfig{
			LocalAS: asB, LocalID: netx.MustParseAddr("10.0.0.2"),
			HoldTime: 3 * time.Second,
		})
		ch <- result{s, err}
	}()

	client, err := Dial(ln.Addr().String(), SessionConfig{
		LocalAS: asA, LocalID: netx.MustParseAddr("10.0.0.1"),
		HoldTime: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	server := <-ch
	if server.err != nil {
		t.Fatal(server.err)
	}
	t.Cleanup(func() {
		client.Close()
		server.s.Close()
	})
	return client, server.s
}

func TestSessionHandshake(t *testing.T) {
	a, b := sessionPair(t, 65001, 65002)
	if a.PeerAS() != 65002 {
		t.Errorf("client peer AS = %v", a.PeerAS())
	}
	if b.PeerAS() != 65001 {
		t.Errorf("server peer AS = %v", b.PeerAS())
	}
}

func TestSessionFourOctetAS(t *testing.T) {
	// ASNs above 65535 must survive via the 4-octet-AS capability.
	a, b := sessionPair(t, 4200000001, 4200000002)
	if a.PeerAS() != 4200000002 || b.PeerAS() != 4200000001 {
		t.Fatalf("AS4 negotiation failed: %v / %v", a.PeerAS(), b.PeerAS())
	}
}

func TestSessionUpdateExchange(t *testing.T) {
	a, b := sessionPair(t, 65001, 65002)
	want := sampleUpdate()
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("update mismatch:\n in: %+v\nout: %+v", want, got)
	}
}

func TestSessionRecvSkipsKeepalives(t *testing.T) {
	// Short hold time: keepalives flow every second; Recv must absorb
	// them and still deliver the update.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan *Session, 1)
	go func() {
		conn, _ := ln.Accept()
		s, err := NewSession(conn, SessionConfig{LocalAS: 2, LocalID: 2, HoldTime: 600 * time.Millisecond})
		if err != nil {
			done <- nil
			return
		}
		done <- s
	}()
	client, err := Dial(ln.Addr().String(), SessionConfig{LocalAS: 1, LocalID: 1, HoldTime: 600 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-done
	if server == nil {
		t.Fatal("server session failed")
	}
	defer server.Close()

	go func() {
		// Send once the client's Recv has absorbed a keepalive.
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for deadline := time.Now().Add(10 * time.Second); client.Stats().KeepalivesIn == 0 && time.Now().Before(deadline); {
			<-tick.C
		}
		server.Send(sampleUpdate())
	}()
	got, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.NLRI) == 0 {
		t.Fatal("update lost")
	}
	if client.Stats().KeepalivesIn == 0 {
		t.Fatal("the update arrived before any keepalive")
	}
}

func TestSessionCloseYieldsEOF(t *testing.T) {
	a, b := sessionPair(t, 65001, 65002)
	go a.Close()
	if _, err := b.Recv(); err != io.EOF && err != nil {
		// CEASE maps to io.EOF; a racing TCP close may surface as a
		// network error, which is also acceptable termination.
		t.Logf("Recv after close: %v", err)
	}
}

func TestSessionStreamIntoRIB(t *testing.T) {
	a, b := sessionPair(t, 65001, 65002)

	updates := []*Update{
		{
			Attrs: Attributes{
				ASPath:  []PathSegment{{Type: SegmentSequence, ASNs: []ASN{65001, 70}}},
				NextHop: 1,
			},
			NLRI: []netx.Prefix{netx.MustParsePrefix("203.0.113.0/24")},
		},
		{
			Attrs: Attributes{
				ASPath:  []PathSegment{{Type: SegmentSequence, ASNs: []ASN{65001, 71}}},
				NextHop: 1,
			},
			NLRI: []netx.Prefix{netx.MustParsePrefix("198.51.100.0/24")},
		},
	}
	go func() {
		for _, u := range updates {
			a.Send(u)
		}
		a.Close()
	}()

	rib := NewRIB()
	for {
		u, err := b.Recv()
		if err != nil {
			break
		}
		rib.ApplyUpdate(u)
	}
	if rib.NumPrefixes() != 2 {
		t.Fatalf("RIB has %d prefixes", rib.NumPrefixes())
	}
	requireOrigins(t, rib, map[string]ASN{"203.0.113.0/24": 70, "198.51.100.0/24": 71})
}

func TestNewSessionRejectsGarbage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, _ := ln.Accept()
		conn.Write([]byte("definitely not a BGP OPEN message......."))
		conn.Close()
	}()
	if _, err := Dial(ln.Addr().String(), SessionConfig{LocalAS: 1, LocalID: 1}); err == nil {
		t.Fatal("garbage handshake accepted")
	}
}
