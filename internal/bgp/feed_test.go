package bgp

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spoofscope/internal/faultnet"
	"spoofscope/internal/netx"
	"spoofscope/internal/obs"
)

// feedServer replays nPrefixes announcements to every peer, closing each
// session with an orderly CEASE — the route-server model where one complete
// replay is one table snapshot.
func feedServer(t *testing.T, ln net.Listener, nPrefixes int) {
	t.Helper()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				sess, err := NewSession(conn, SessionConfig{
					LocalAS: 65000, LocalID: netx.MustParseAddr("198.51.100.1"),
					HoldTime: 10 * time.Second,
				})
				if err != nil {
					return
				}
				defer sess.Close()
				for i := 0; i < nPrefixes; i++ {
					u := &Update{
						Attrs: Attributes{
							ASPath:  []PathSegment{{Type: SegmentSequence, ASNs: []ASN{65000, ASN(65100 + i)}}},
							NextHop: netx.MustParseAddr("198.51.100.2"),
						},
						NLRI: []netx.Prefix{netx.MustParsePrefix("10.0.0.0/24")},
					}
					u.NLRI[0] = netx.Prefix{Addr: netx.Addr(0x0a000000 + uint32(i)<<8), Bits: 24}
					if err := sess.Send(u); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
}

func feedSessionConfig() SessionConfig {
	return SessionConfig{
		LocalAS: 64999, LocalID: netx.MustParseAddr("198.51.100.2"),
		HoldTime: 2 * time.Second,
	}
}

func TestFeedDeliversSnapshotsAcrossReplays(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const nPrefixes = 25
	feedServer(t, ln, nPrefixes)

	var snapshots []*RIB
	var gaps atomic.Int32
	feed := NewFeed(FeedConfig{
		Addr:           ln.Addr().String(),
		Session:        feedSessionConfig(),
		InitialBackoff: 10 * time.Millisecond,
		Seed:           7,
	}, nil)
	err = feed.Run(context.Background(), func(rib *RIB) bool {
		snapshots = append(snapshots, rib)
		return len(snapshots) < 2
	}, func(error) { gaps.Add(1) })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(snapshots) != 2 {
		t.Fatalf("got %d snapshots, want 2", len(snapshots))
	}
	for i, rib := range snapshots {
		if rib.NumPrefixes() != nPrefixes {
			t.Fatalf("snapshot %d has %d prefixes, want %d", i, rib.NumPrefixes(), nPrefixes)
		}
	}
	if gaps.Load() != 0 {
		t.Fatalf("clean replays reported %d gaps", gaps.Load())
	}
	if st := feed.Stats(); st.Dials != 2 || st.Flaps != 0 || st.State != StateClosed {
		t.Fatalf("stats = %+v, want 2 dials, 0 flaps, closed", st)
	}
}

// TestFeedSignalsGapOnFlap resets the first connection mid-replay: the feed
// must report the gap exactly once, discard the partial table, and still
// deliver a complete snapshot from the retried replay.
func TestFeedSignalsGapOnFlap(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := faultnet.WrapListener(inner, func(i int) faultnet.Config {
		if i == 0 {
			return faultnet.Config{Seed: 21, ResetAfterWrites: 10}
		}
		return faultnet.Config{}
	})
	defer ln.Close()
	const nPrefixes = 25
	feedServer(t, ln, nPrefixes)

	var gaps atomic.Int32
	var snapshot *RIB
	feed := NewFeed(FeedConfig{
		Addr:           ln.Addr().String(),
		Session:        feedSessionConfig(),
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		Seed:           8,
	}, nil)
	err = feed.Run(context.Background(), func(rib *RIB) bool {
		snapshot = rib
		return false
	}, func(error) { gaps.Add(1) })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gaps.Load() != 1 {
		t.Fatalf("mid-replay reset reported %d gaps, want 1", gaps.Load())
	}
	if snapshot == nil || snapshot.NumPrefixes() != nPrefixes {
		t.Fatalf("snapshot incomplete after recovery: %v", snapshot)
	}
	if st := feed.Stats(); st.Flaps == 0 {
		t.Fatalf("stats = %+v, want at least one flap", st)
	}
}

// TestReconnectorRecoversFromMidFeedReset kills the server-side transport
// mid-replay on the first connection; the feed must count one flap, re-dial
// once, and deliver the complete replay from the second connection.
func TestReconnectorRecoversFromMidFeedReset(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Connection 0 resets after the handshake (2 writes) plus 3 updates;
	// connection 1 runs clean.
	ln := faultnet.WrapListener(inner, func(i int) faultnet.Config {
		if i == 0 {
			return faultnet.Config{Seed: 1, ResetAfterWrites: 5}
		}
		return faultnet.Config{}
	})
	defer ln.Close()
	const nPrefixes = 8
	feedServer(t, ln, nPrefixes)

	var snapshots []*RIB
	feed := NewFeed(FeedConfig{
		Addr:           ln.Addr().String(),
		Session:        feedSessionConfig(),
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		Seed:           2,
	}, nil)
	err = feed.Run(context.Background(), func(rib *RIB) bool {
		snapshots = append(snapshots, rib)
		return false
	}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(snapshots) != 1 || snapshots[0].NumPrefixes() != nPrefixes {
		t.Fatalf("got %d snapshots (%v), want one complete replay", len(snapshots), snapshots)
	}
	st := feed.Stats()
	if st.Flaps != 1 {
		t.Errorf("flaps = %d", st.Flaps)
	}
	if st.Dials != 2 {
		t.Errorf("dials = %d", st.Dials)
	}
	if st.LastError == "" {
		t.Error("the reset left no LastError")
	}
	if ln.Accepts() != 2 {
		t.Errorf("server saw %d connections", ln.Accepts())
	}
}

func TestReconnectorGivesUpAfterMaxAttempts(t *testing.T) {
	dials := 0
	feed := NewFeed(FeedConfig{
		Addr:           "unreachable:179",
		InitialBackoff: time.Millisecond,
		MaxBackoff:     2 * time.Millisecond,
		MaxAttempts:    3,
		Dial: func(context.Context, string) (net.Conn, error) {
			dials++
			return nil, errors.New("connection refused")
		},
	}, nil)
	if err := feed.Run(context.Background(), func(*RIB) bool { return true }, nil); err == nil {
		t.Fatal("Run succeeded with a failing dialer")
	}
	if dials != 3 {
		t.Fatalf("dialed %d times", dials)
	}
	st := feed.Stats()
	if st.Dials != 3 || st.LastError == "" {
		t.Fatalf("stats = %+v", st)
	}
	if st.GiveUps != 1 {
		t.Fatalf("give-ups = %d, want 1", st.GiveUps)
	}
}

// TestReconnectorGiveUpIsObservable proves the feed's terminal exit is
// visible without polling Stats: the journal records the give-up event and
// the spoofscope_bgp_giveups_total counter reads 1 from a metric scrape.
func TestReconnectorGiveUpIsObservable(t *testing.T) {
	tel := obs.NewTelemetry()
	feed := NewFeed(FeedConfig{
		Addr:           "unreachable:179",
		InitialBackoff: time.Millisecond,
		MaxBackoff:     2 * time.Millisecond,
		MaxAttempts:    2,
		Dial: func(context.Context, string) (net.Conn, error) {
			return nil, errors.New("connection refused")
		},
	}, tel)
	if err := feed.Run(context.Background(), func(*RIB) bool { return true }, nil); err == nil {
		t.Fatal("Run succeeded with a failing dialer")
	}
	var gaveUp bool
	for _, e := range tel.Journal.Events() {
		if e.Kind == obs.EventBGPGiveUp {
			gaveUp = true
		}
	}
	if !gaveUp {
		t.Fatalf("no %s event in journal: %v", obs.EventBGPGiveUp, tel.Journal.Events())
	}
	var buf bytes.Buffer
	if err := tel.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `spoofscope_bgp_giveups_total{peer="unreachable:179"} 1`) {
		t.Fatalf("give-up counter missing from scrape:\n%s", buf.String())
	}
}

// TestFeedCancelAbortsBackoff parks a feed in a long backoff against a dead
// address; cancelling the context must end Run promptly instead of running
// the timer out.
func TestFeedCancelAbortsBackoff(t *testing.T) {
	// A listener that never accepts a handshake: grab a port, then close it
	// so every dial is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	feed := NewFeed(FeedConfig{
		Addr:           addr,
		Session:        feedSessionConfig(),
		InitialBackoff: time.Hour, // without cancellation this would hang
		Seed:           9,
	}, nil)

	errc := make(chan error, 1)
	go func() { errc <- feed.Run(ctx, func(*RIB) bool { return true }, nil) }()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for deadline := time.Now().Add(5 * time.Second); feed.Stats().State != StateBackoff; <-tick.C {
		if time.Now().After(deadline) {
			t.Fatal("Run never reached the backoff sleep")
		}
	}
	start := time.Now()
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Run returned %v, want nil after cancellation", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run still blocked in backoff after cancel")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancel took %v to end Run", elapsed)
	}
	if st := feed.Stats(); st.State != StateClosed {
		t.Fatalf("state after cancel = %v, want closed", st.State)
	}
}
