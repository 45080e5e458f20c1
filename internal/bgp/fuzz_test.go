package bgp

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"spoofscope/internal/netx"
)

// The wire decoders must reject — never panic on — arbitrary input, and must
// accept and refuse what the oracle decoders (oracle_test.go) do, decoding
// the same values. These tests mutate valid messages and feed pure noise.

// requireUpdateAgrees fails t unless UnmarshalUpdate and the oracle agree on
// b: both refuse it, or both accept it as equal updates.
func requireUpdateAgrees(t *testing.T, b []byte) *Update {
	t.Helper()
	got, err := UnmarshalUpdate(b)
	want, oerr := oracleUnmarshalUpdate(b)
	if (err == nil) != (oerr == nil) || !reflect.DeepEqual(got, want) {
		t.Fatalf("UnmarshalUpdate(%x) = %+v, %v; the oracle's %+v, %v", b, got, err, want, oerr)
	}
	return got
}

// requireMRTAgrees fails t unless the MRT reader and the oracle read the
// same records from b and stop at the same one, and every BGP4MP message in
// them decodes as the oracle decodes it. Each record is then fed to a RIB
// and to the oracle RIB, which must read alike after every record, and the
// table read after one record must keep its paths once the next is folded.
func requireMRTAgrees(t *testing.T, b []byte) {
	t.Helper()
	// Bound body lengths: a flipped length field may demand gigabytes,
	// which ReadFull from a bounded reader just refuses.
	r := NewReader(io.LimitReader(bytes.NewReader(b), int64(len(b))))
	or := NewReader(io.LimitReader(bytes.NewReader(b), int64(len(b))))
	rib, orib := NewRIB(), newOracleRIB()
	var prev []Announcement
	var prevPaths [][]ASN
	for i := 0; ; i++ {
		rec, err := r.Next()
		want, oerr := oracleNext(or)
		if (err == nil) != (oerr == nil) || !reflect.DeepEqual(rec, want) {
			t.Fatalf("MRT record %d of %x: %+v, %v; the oracle's %+v, %v", i, b, rec, err, want, oerr)
		}
		if err != nil {
			return
		}
		switch {
		case rec.BGP4MP != nil:
			if u := requireUpdateAgrees(t, rec.BGP4MP.Message); u != nil {
				rib.ApplyUpdate(u)
				orib.ApplyUpdate(u)
			}
		case rec.RIB != nil:
			rib.ApplyRIBRecord(rec.RIB)
			orib.ApplyRIBRecord(rec.RIB)
		}
		label := fmt.Sprintf("MRT record %d of %x", i, b)
		requireRIBAgrees(t, label, rib, orib)
		requireKept(t, label, prev, prevPaths)
		prev = rib.Announcements()
		prevPaths = clonePaths(prev)
	}
}

func TestUnmarshalUpdateNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	u := sampleUpdate()
	valid, _ := u.Marshal()
	for i := 0; i < 5000; i++ {
		b := append([]byte(nil), valid...)
		// Mutate 1-4 random bytes.
		for k := rng.Intn(4) + 1; k > 0; k-- {
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		requireUpdateAgrees(t, b)
	}
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(100))
		rng.Read(b)
		requireUpdateAgrees(t, b)
	}
}

func TestMRTReaderNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	valid := sampleMRT()

	for i := 0; i < 3000; i++ {
		b := append([]byte(nil), valid...)
		for k := rng.Intn(6) + 1; k > 0; k-- {
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		requireMRTAgrees(t, b)
	}
	for i := 0; i < 1000; i++ {
		b := make([]byte, rng.Intn(200))
		rng.Read(b)
		requireMRTAgrees(t, b)
	}
}

func samplePrefix() netx.Prefix {
	return sampleUpdate().NLRI[0]
}

// sampleMRT is a well-formed MRT file holding a BGP4MP update and a RIB
// record.
func sampleMRT() []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteUpdate(testTime, 1, 2, 3, 4, sampleUpdate())
	w.WriteRIB(testTime, &RIBRecord{
		Prefix:  samplePrefix(),
		Entries: []RIBEntry{{Attrs: sampleUpdate().Attrs, OriginatedTime: testTime}},
	})
	w.Flush()
	return buf.Bytes()
}

// FuzzUnmarshalUpdate lets `go test -fuzz=FuzzUnmarshalUpdate ./internal/bgp`
// explore the UPDATE body decoder against the oracle; the corpus seeds a
// valid message, and testdata/fuzz holds inputs that reached new code.
func FuzzUnmarshalUpdate(f *testing.F) {
	valid, _ := sampleUpdate().Marshal()
	f.Add(valid)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) { requireUpdateAgrees(t, b) })
}

// FuzzMRT explores the MRT record framing and the record and UPDATE decoders
// behind it against the oracle, mirroring ipfix's stream fuzz harness. The
// corpus seeds sampleMRT and a PEER_INDEX_TABLE record.
func FuzzMRT(f *testing.F) {
	f.Add(sampleMRT())
	f.Add([]byte{})
	var peers bytes.Buffer
	w := NewWriter(&peers)
	w.WritePeerIndexTable(testTime, &PeerIndexTable{CollectorID: 1, ViewName: "rrc00", Peers: []Peer{{BGPID: 2, Addr: 3, AS: 65004}}})
	w.Flush()
	f.Add(peers.Bytes())
	f.Fuzz(requireMRTAgrees)
}

// FuzzSession plays a BGP peer over net.Pipe that sends arbitrary bytes: its
// OPEN, its KEEPALIVE and whatever follows, read by NewSession and then Recv
// until the session fails. No stream may panic or wedge the session, and
// when the stream opens with an OPEN, parseOpen must judge it as the oracle
// does. The corpus seeds a valid OPEN, KEEPALIVE, UPDATE and CEASE.
func FuzzSession(f *testing.F) {
	local := SessionConfig{LocalAS: 64512, LocalID: 1, HoldTime: 30 * time.Second, HandshakeTimeout: 5 * time.Second}
	peer := &Session{cfg: SessionConfig{LocalAS: 4200000001, LocalID: 2, HoldTime: 9 * time.Second}}
	open := frameMessage(msgTypeOpen, peer.openBody())
	update, _ := sampleUpdate().Marshal()
	f.Add(slices.Concat(open, frameMessage(msgTypeKeepalive, nil), update, frameMessage(msgTypeNotification, []byte{6, 0})))
	f.Add(open)
	f.Fuzz(func(t *testing.T, stream []byte) {
		if typ, body, err := readMessage(bytes.NewReader(stream)); err == nil && typ == msgTypeOpen {
			got, want := &Session{cfg: local}, &Session{cfg: local}
			err, oerr := got.parseOpen(body), oracleParseOpen(want, body)
			if (err == nil) != (oerr == nil) || err == nil && (got.peerAS != want.peerAS || got.holdTime != want.holdTime) {
				t.Fatalf("parseOpen(%x): %v, %v; the oracle's %v, %v", body, got, err, want, oerr)
			}
		}
		conn, remote := net.Pipe()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			io.Copy(io.Discard, remote) // the session's OPEN, KEEPALIVEs and NOTIFICATIONs
		}()
		go func() {
			defer wg.Done()
			remote.Write(stream) // fails once the session has closed conn
			remote.Close()
		}()
		if s, err := NewSession(conn, local); err == nil {
			for err == nil {
				_, err = s.Recv()
			}
			s.Close()
		}
		conn.Close() // NewSession closes it on failure; a second Close is harmless
		wg.Wait()
	})
}
