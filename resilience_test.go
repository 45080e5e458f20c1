package spoofscope

// End-to-end resilience acceptance: a faultnet schedule kills and corrupts
// the live transports mid-feed, and the supervised BGP session plus the
// hardened IPFIX collector must recover automatically — with the final
// classified-flow tally identical to a run with no faults at all.

import (
	"context"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/faultnet"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
)

// serveAnnouncements replays the announcement table to every peer that
// connects to ln, closing each session with an orderly CEASE after a
// complete replay. hold (optional) runs on each connection after the
// handshake, before the replay, with the connection's accept index: a test
// that must order its own steps against a replay holds the peer there.
func serveAnnouncements(ln net.Listener, anns []bgp.Announcement, hold func(i int)) {
	for i := 0; ; i++ {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn, i int) {
			sess, err := bgp.NewSession(conn, bgp.SessionConfig{
				LocalAS: 65000, LocalID: netx.MustParseAddr("198.51.100.1"),
				HoldTime: 10 * time.Second,
			})
			if err != nil {
				return
			}
			defer sess.Close()
			if hold != nil {
				hold(i)
			}
			for _, a := range anns {
				if err := sess.Send(&bgp.Update{
					Attrs: bgp.Attributes{
						ASPath:  []bgp.PathSegment{{Type: bgp.SegmentSequence, ASNs: a.Path}},
						NextHop: netx.MustParseAddr("198.51.100.2"),
					},
					NLRI: []netx.Prefix{a.Prefix},
				}); err != nil {
					return
				}
			}
		}(conn, i)
	}
}

// ribViaLiveFeed streams the announcements through a supervised BGP feed.
// serverPlan schedules faults on the route server's accepted connections,
// dialPlan on the collector's outbound ones (both indexed per connection;
// nil = clean). It returns the first complete snapshot plus the
// supervision stats.
func ribViaLiveFeed(t *testing.T, anns []bgp.Announcement, serverPlan, dialPlan func(i int) faultnet.Config) (*bgp.RIB, bgp.FeedStats) {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := faultnet.WrapListener(inner, serverPlan)
	defer ln.Close()
	go serveAnnouncements(ln, anns, nil)

	dials := 0
	feed := bgp.NewFeed(bgp.FeedConfig{
		Addr: ln.Addr().String(),
		Session: bgp.SessionConfig{
			LocalAS: 64999, LocalID: netx.MustParseAddr("198.51.100.2"),
			HoldTime: 2 * time.Second,
		},
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
		Seed:           13,
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			conn, err := new(net.Dialer).DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			i := dials
			dials++
			if dialPlan == nil {
				return conn, nil
			}
			return faultnet.Wrap(conn, dialPlan(i)), nil
		},
	}, nil)
	var rib *bgp.RIB
	if err := feed.Run(context.Background(), func(r *bgp.RIB) bool { rib = r; return false }, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rib, feed.Stats()
}

func classTally(cls *Classifier, flows []Flow) map[Class]int {
	counts := map[Class]int{}
	for _, f := range flows {
		counts[cls.Classify(f).Class]++
	}
	return counts
}

func TestResilientBGPFeedMatchesNoFaultRun(t *testing.T) {
	sim := newSmallSim(t)
	anns := sim.Env().Scenario.Anns
	flows := sim.Flows()

	cleanRIB, cleanStats := ribViaLiveFeed(t, anns, nil, nil)
	if cleanStats.Flaps != 0 || cleanStats.Dials != 1 {
		t.Fatalf("clean run stats = %+v", cleanStats)
	}

	// Fault schedule: the server resets connection 0 mid-replay; the
	// collector's second dial stalls right after the handshake, so the
	// negotiated 2s hold timer must fire (Recv never hangs); the third
	// connection runs clean end to end.
	serverPlan := func(i int) faultnet.Config {
		if i == 0 {
			return faultnet.Config{Seed: 21, ResetAfterWrites: 30}
		}
		return faultnet.Config{}
	}
	dialPlan := func(i int) faultnet.Config {
		if i == 1 {
			return faultnet.Config{Seed: 22, StallAfterReads: 4}
		}
		return faultnet.Config{}
	}
	start := time.Now()
	faultRIB, faultStats := ribViaLiveFeed(t, anns, serverPlan, dialPlan)
	elapsed := time.Since(start)
	if faultStats.Flaps != 2 {
		t.Fatalf("fault run flaps = %+v", faultStats)
	}
	if faultStats.Dials != 3 {
		t.Fatalf("fault run dials = %+v", faultStats)
	}
	// The stalled session must have died on the 2s hold timer, not hung.
	if elapsed > 15*time.Second {
		t.Fatalf("fault run took %v — the stalled Recv hung past the hold timer", elapsed)
	}

	if cleanRIB.NumPrefixes() != faultRIB.NumPrefixes() {
		t.Fatalf("prefixes: clean %d, faulted %d", cleanRIB.NumPrefixes(), faultRIB.NumPrefixes())
	}
	members := sim.Members()
	cleanCls, err := NewClassifierFromRIB(cleanRIB, members, ClassifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	faultCls, err := NewClassifierFromRIB(faultRIB, members, ClassifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clean, faulted := classTally(cleanCls, flows), classTally(faultCls, flows)
	for _, c := range []Class{ClassValid, ClassBogon, ClassUnrouted, ClassInvalid} {
		if clean[c] != faulted[c] {
			t.Errorf("%s: clean %d, faulted %d", c, clean[c], faulted[c])
		}
	}
}

// TestResilientIPFIXFeedMatchesNoFaultRun streams flows to the hardened TCP
// collector through a transport that is reset mid-stream and fed one
// corrupt-but-framed message; the exporter re-dials and re-sends, and the
// classified tally of the collected flows must match classifying the same
// flows directly.
func TestResilientIPFIXFeedMatchesNoFaultRun(t *testing.T) {
	sim := newSmallSim(t)
	cls := sim.Classifier()
	flows := append([]Flow(nil), sim.Flows()...)
	if len(flows) > 2000 {
		flows = flows[:2000]
	}
	// Stamp each flow with a unique start time so duplicates from re-sent
	// batches can be de-duplicated; Start does not affect classification.
	epoch := time.Unix(1486252800, 0).UTC()
	for i := range flows {
		flows[i].Start = epoch.Add(time.Duration(i) * time.Millisecond)
	}

	col, err := ipfix.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	col.IdleTimeout = 5 * time.Second

	var mu sync.Mutex
	collected := map[int64]Flow{}
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- col.ServeBatch(func(batch []Flow) bool {
			mu.Lock()
			for _, f := range batch {
				collected[f.Start.UnixMilli()] = f
			}
			mu.Unlock()
			return true
		})
	}()

	// A corrupt-but-framed IPFIX message: correct length field, version 0.
	bad := make([]byte, 20)
	binary.BigEndian.PutUint16(bad[2:], uint16(len(bad)))

	// Exporter with retry: connection 0 resets mid-stream (faultnet), later
	// connections run clean; after a transport error the current batch and
	// everything after it are re-sent on a fresh connection.
	dials := 0
	dial := func() (*ipfix.TCPExporter, net.Conn, error) {
		raw, err := net.Dial("tcp", col.Addr().String())
		if err != nil {
			return nil, nil, err
		}
		conn := net.Conn(raw)
		if dials == 0 {
			conn = faultnet.Wrap(raw, faultnet.Config{Seed: 31, ResetAfterWrites: 5})
		}
		dials++
		return ipfix.NewTCPExporter(conn, 9), conn, nil
	}
	exp, conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	const batch = 100
	for off := 0; off < len(flows); off += batch {
		end := off + batch
		if end > len(flows) {
			end = len(flows)
		}
		if off == 3*batch {
			// Inject garbage between two healthy batches: the collector
			// must count it and keep the stream alive.
			if _, err := conn.Write(bad); err != nil {
				t.Fatal(err)
			}
		}
		if err := exp.Export(epoch, flows[off:end]); err != nil {
			exp, conn, err = dial()
			if err != nil {
				t.Fatal(err)
			}
			off -= batch // re-send the failed batch on the new connection
		}
	}
	exp.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(collected)
		mu.Unlock()
		if n >= len(flows) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	col.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	st := col.Stats()
	if dials < 2 || st.Connections != dials {
		t.Fatalf("dials = %d, connections = %d", dials, st.Connections)
	}
	if st.Disconnects < 1 {
		t.Fatalf("reset not recorded: %+v", st)
	}
	if st.Malformed < 1 {
		t.Fatalf("corrupt framed message not counted: %+v", st)
	}

	mu.Lock()
	got := make([]Flow, 0, len(collected))
	for _, f := range collected {
		got = append(got, f)
	}
	mu.Unlock()
	if len(got) != len(flows) {
		t.Fatalf("collected %d distinct flows, want %d", len(got), len(flows))
	}
	want, have := classTally(cls, flows), classTally(cls, got)
	for _, c := range []Class{ClassValid, ClassBogon, ClassUnrouted, ClassInvalid} {
		if want[c] != have[c] {
			t.Errorf("%s: direct %d, via faulted feed %d", c, want[c], have[c])
		}
	}
}
