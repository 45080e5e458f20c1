package bgp

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"spoofscope/internal/faultnet"
	"spoofscope/internal/netx"
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
		Reconnector: ReconnectorConfig{
			Addr:           ln.Addr().String(),
			Session:        feedSessionConfig(),
			InitialBackoff: 10 * time.Millisecond,
			Seed:           7,
		},
		OnSnapshot: func(rib *RIB) bool {
			snapshots = append(snapshots, rib)
			return len(snapshots) < 2
		},
		OnGap: func(error) { gaps.Add(1) },
	})
	if err := feed.Run(); err != nil {
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
	if st := feed.Reconnector().Stats(); st.Dials != 2 || st.Flaps != 0 {
		t.Fatalf("stats = %+v, want 2 dials, 0 flaps", st)
	}
}

// TestFeedSignalsGapOnFlap resets the first connection mid-replay: the feed
// must report the gap, discard the partial table, and still deliver a
// complete snapshot from the retried replay.
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
		Reconnector: ReconnectorConfig{
			Addr:           ln.Addr().String(),
			Session:        feedSessionConfig(),
			InitialBackoff: 10 * time.Millisecond,
			Seed:           8,
		},
		OnSnapshot: func(rib *RIB) bool {
			snapshot = rib
			return false
		},
		OnGap: func(error) { gaps.Add(1) },
	})
	if err := feed.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gaps.Load() == 0 {
		t.Fatal("mid-replay reset reported no gap")
	}
	if snapshot == nil || snapshot.NumPrefixes() != nPrefixes {
		t.Fatalf("snapshot incomplete after recovery: %v", snapshot)
	}
	if st := feed.Reconnector().Stats(); st.Flaps == 0 {
		t.Fatalf("stats = %+v, want at least one flap", st)
	}
}

// TestReconnectorContextCancelAbortsBackoff parks a reconnector in a long
// backoff against a dead address; cancelling the context must abort the
// sleep promptly instead of running the timer out.
func TestReconnectorContextCancelAbortsBackoff(t *testing.T) {
	// A listener that never accepts a handshake: grab a port, then close it
	// so every dial is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	rec := NewReconnector(ReconnectorConfig{
		Addr:           addr,
		Session:        feedSessionConfig(),
		Context:        ctx,
		InitialBackoff: time.Hour, // without cancellation this would hang
		Seed:           9,
	})
	defer rec.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := rec.Recv()
		errc <- err
	}()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for deadline := time.Now().Add(5 * time.Second); rec.Stats().State != StateBackoff; <-tick.C {
		if time.Now().After(deadline) {
			t.Fatal("Recv never reached the backoff sleep")
		}
	}
	start := time.Now()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Recv returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv still blocked in backoff after cancel")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancel took %v to unblock Recv", elapsed)
	}
}
