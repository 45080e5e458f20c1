package cluster

import (
	"net"
	"testing"
	"time"

	"spoofscope/internal/obs"
)

// The auth suite drives the coordinator's challenge/hello handshake with a
// hand-rolled client, so each rejection path is hit deterministically:
// wrong secret, truncated hello, a hello replayed from another connection,
// and a zombie presenting a live worker's identity. Every one must be
// rejected, counted, and journaled — and must never disturb an
// authenticated link.

// authTestCoordinator builds a coordinator with a secret and a short hello
// timeout, suitable for handshake probing.
func authTestCoordinator(t *testing.T, secret []byte) (*Coordinator, *obs.Telemetry) {
	t.Helper()
	tel := obs.NewTelemetry()
	coord, err := NewCoordinator(Config{
		Shards:            2,
		Members:           testMembers,
		Start:             tcStart,
		Bucket:            time.Hour,
		HeartbeatInterval: 20 * time.Millisecond,
		Secret:            secret,
		HelloTimeout:      100 * time.Millisecond,
		Telemetry:         tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord, tel
}

// openConn hands one side of a pipe to the coordinator and returns the
// client side plus the challenge nonce the coordinator sent.
func openConn(t *testing.T, coord *Coordinator) (net.Conn, []byte) {
	t.Helper()
	coordSide, clientSide := net.Pipe()
	coord.AddConn(coordSide)
	body, err := readFrame(clientSide, time.Now().Add(5*time.Second), nil)
	if err != nil {
		t.Fatalf("reading challenge: %v", err)
	}
	nonce, err := decodeChallenge(body)
	if err != nil {
		t.Fatalf("decoding challenge: %v", err)
	}
	return clientSide, nonce
}

// expectDropped waits for the coordinator to close the client's connection.
func expectDropped(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection still open after a rejected hello")
	}
}

// waitStats polls the coordinator until cond holds or the deadline passes.
func waitStats(t *testing.T, coord *Coordinator, what string, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(coord.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never observed: %+v", what, coord.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func countEvents(tel *obs.Telemetry, kind string) int {
	n := 0
	for _, e := range tel.Journal.Events() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

func TestAuthRejectsWrongSecret(t *testing.T) {
	coord, tel := authTestCoordinator(t, []byte("right"))
	conn, nonce := openConn(t, coord)
	hello := helloMsg{identity: "intruder", name: "intruder"}
	hello.mac = helloMAC([]byte("wrong"), nonce, hello.identity, hello.name)
	if err := writeSealed(conn, encodeHello(hello)); err != nil {
		t.Fatal(err)
	}
	expectDropped(t, conn)
	waitStats(t, coord, "auth failure", func(st Stats) bool { return st.AuthFailures == 1 })
	if st := coord.Stats(); st.Workers != 0 {
		t.Fatalf("wrong-secret hello joined: %+v", st)
	}
	if countEvents(tel, obs.EventAuthFailure) == 0 {
		t.Fatal("auth failure not journaled")
	}
}

func TestAuthRejectsTruncatedHello(t *testing.T) {
	coord, tel := authTestCoordinator(t, []byte("s3cret"))
	conn, nonce := openConn(t, coord)
	hello := helloMsg{identity: "w1", name: "w1"}
	hello.mac = helloMAC([]byte("s3cret"), nonce, hello.identity, hello.name)
	full := encodeHello(hello)
	if err := writeSealed(conn, sealFrame(full[:len(full)/2])); err != nil {
		t.Fatal(err)
	}
	expectDropped(t, conn)
	waitStats(t, coord, "auth failure", func(st Stats) bool { return st.AuthFailures == 1 })
	if countEvents(tel, obs.EventAuthFailure) == 0 {
		t.Fatal("truncated hello not journaled")
	}
}

// TestAuthRejectsReplayedHello proves the MAC binds to the connection: a
// valid hello captured from one connection fails verification on another,
// because each connection's challenge nonce is fresh.
func TestAuthRejectsReplayedHello(t *testing.T) {
	coord, tel := authTestCoordinator(t, []byte("s3cret"))

	connA, nonceA := openConn(t, coord)
	defer connA.Close()
	hello := helloMsg{identity: "w1", name: "w1"}
	hello.mac = helloMAC([]byte("s3cret"), nonceA, hello.identity, hello.name)
	captured := encodeHello(hello)
	if err := writeSealed(connA, captured); err != nil {
		t.Fatal(err)
	}
	waitStats(t, coord, "legitimate join", func(st Stats) bool { return st.Workers == 1 })

	// Replay the captured hello on a fresh connection.
	connB, _ := openConn(t, coord)
	if err := writeSealed(connB, captured); err != nil {
		t.Fatal(err)
	}
	expectDropped(t, connB)
	waitStats(t, coord, "replay rejection", func(st Stats) bool { return st.AuthFailures == 1 })
	if st := coord.Stats(); st.Workers != 1 {
		t.Fatalf("replay disturbed the live link: %+v", st)
	}
	if countEvents(tel, obs.EventAuthFailure) == 0 {
		t.Fatal("replayed hello not journaled")
	}
}

// TestAuthRejectsZombieIdentity: a second connection that authenticates
// correctly but presents a live worker's identity is a zombie (or an
// impostor holding the secret); the established link wins.
func TestAuthRejectsZombieIdentity(t *testing.T) {
	coord, tel := authTestCoordinator(t, []byte("s3cret"))

	connA, nonceA := openConn(t, coord)
	defer connA.Close()
	helloA := helloMsg{identity: "node-1", name: "w1"}
	helloA.mac = helloMAC([]byte("s3cret"), nonceA, helloA.identity, helloA.name)
	if err := writeSealed(connA, encodeHello(helloA)); err != nil {
		t.Fatal(err)
	}
	waitStats(t, coord, "first join", func(st Stats) bool { return st.Workers == 1 })

	connB, nonceB := openConn(t, coord)
	helloB := helloMsg{identity: "node-1", name: "w1-zombie"}
	helloB.mac = helloMAC([]byte("s3cret"), nonceB, helloB.identity, helloB.name)
	if err := writeSealed(connB, encodeHello(helloB)); err != nil {
		t.Fatal(err)
	}
	expectDropped(t, connB)
	waitStats(t, coord, "identity rejection", func(st Stats) bool { return st.IdentityRejects == 1 })
	if st := coord.Stats(); st.Workers != 1 || st.AuthFailures != 0 {
		t.Fatalf("zombie identity disturbed the cluster: %+v", st)
	}
	if countEvents(tel, obs.EventAuthFailure) == 0 {
		t.Fatal("identity rejection not journaled")
	}
}

// TestAuthDropsSilentConnection: a connection that never says hello is
// dropped at the hello timeout, freeing its conn slot.
func TestAuthDropsSilentConnection(t *testing.T) {
	coord, _ := authTestCoordinator(t, nil)
	conn, _ := openConn(t, coord)
	expectDropped(t, conn)
	waitStats(t, coord, "silent-connection drop", func(st Stats) bool {
		return st.AuthFailures == 1 && st.Conns == 0
	})
}

// TestConnCapRejectsExcess: connections beyond MaxConns are closed on the
// spot and counted, before any handshake work is spent on them.
func TestConnCapRejectsExcess(t *testing.T) {
	tel := obs.NewTelemetry()
	coord, err := NewCoordinator(Config{
		Shards:            2,
		Start:             tcStart,
		Bucket:            time.Hour,
		HeartbeatInterval: 20 * time.Millisecond,
		MaxConns:          1,
		Telemetry:         tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	first, _ := openConn(t, coord)
	defer first.Close()
	coordSide, clientSide := net.Pipe()
	coord.AddConn(coordSide)
	expectDropped(t, clientSide)
	waitStats(t, coord, "conn-cap rejection", func(st Stats) bool { return st.ConnsRejected == 1 })
	if countEvents(tel, obs.EventConnRejected) == 0 {
		t.Fatal("conn-cap rejection not journaled")
	}
}
