package cluster

import (
	"context"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spoofscope/internal/obs"
)

// spyConn is the worker's end of a link, watched: writes counts the Write
// calls begun — the writer enters the next one only once the last frame is
// counted written — and closed is set by Close itself, so a link that the
// worker's tick drops inside the clock's advance reads as dead right after it.
type spyConn struct {
	net.Conn
	writes atomic.Int32
	closed atomic.Bool
}

func (c *spyConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

func (c *spyConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// TestWorkerLiveness is TestBookLiveness at the worker's end of the link: the
// coordinator is played by hand over net.Pipe and the worker runs on a
// virtual clock. Before every tick the coordinator heartbeats the worker
// (hearts); after each tick past the first lag it reads one frame from the
// worker (lag < 0: it reads none). A dead row is live one tick before the
// deadline, dead at it, names its reason, and the worker redials.
func TestWorkerLiveness(t *testing.T) {
	const interval, misses = time.Second, 3 // deadline 3s
	for _, row := range []struct {
		name      string
		challenge bool // the coordinator challenges, and reads the hello unless lag < 0
		hearts    bool
		lag       int
		dies      int // the tick the link is dead at; 0: live for 10× the deadline
		reason    string
	}{
		{name: "no challenge ever", lag: -1, dies: misses, reason: "coordinator silent"},
		{name: "challenge, then silence", challenge: true, dies: misses, reason: "coordinator silent"},
		{name: "heartbeats every tick", challenge: true, hearts: true},
		// The writer holds the unread hello; the first frame to wait in the
		// queue is tick 1's heartbeat, so the deadline runs from tick 1.
		{name: "coordinator stops reading", challenge: true, hearts: true, lag: -1, dies: 1 + misses,
			reason: "outbound queue stalled"},
		{name: "slow but draining reader", challenge: true, hearts: true, lag: 2},
	} {
		t.Run(row.name, func(t *testing.T) {
			clk := &vclock{t: tcStart}
			tel := obs.NewTelemetry()
			coords, spies := make(chan net.Conn, 4), make(chan *spyConn, 4)
			w, err := newWorker(WorkerConfig{
				Name: "w0",
				Dial: func() (net.Conn, error) {
					coordSide, workerSide := net.Pipe()
					spy := &spyConn{Conn: workerSide}
					coords <- coordSide
					spies <- spy
					return spy, nil
				},
				HeartbeatInterval: interval,
				InitialBackoff:    time.Millisecond,
				MaxBackoff:        time.Millisecond,
				Telemetry:         tel,
			}, clk)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() { defer close(done); w.Run(ctx) }()
			coord, spy := <-coords, <-spies
			t.Cleanup(func() { cancel(); <-done; coord.Close() })
			await(t, "session ticking", func() bool { return clk.ticking() == 1 })

			// queued and read count the frames the worker has handed its
			// writer and the frames the coordinator has taken off the wire.
			queued, read := 0, 0
			if row.challenge {
				if err := writeSealed(coord, encodeChallenge(make([]byte, challengeNonceLen))); err != nil {
					t.Fatal(err)
				}
				queued++
				if row.lag >= 0 {
					if body, err := readFrame(coord, nil); err != nil || body[0] != msgHello {
						t.Fatalf("want the hello, got %v, %v", body, err)
					}
					read++
				}
			}
			last := row.dies
			if last == 0 {
				last = 10 * misses
			}
			for tick := 1; tick <= last; tick++ {
				if row.hearts {
					if err := writeSealed(coord, heartbeatFrame); err != nil {
						t.Fatal(err)
					}
				}
				if queued > read {
					// The writer is stuck on the next frame: every frame
					// before it is counted written, whatever the scheduler.
					await(t, "writer on its next frame", func() bool { return spy.writes.Load() == int32(read+1) })
				}
				clk.advance(interval)
				if dead := spy.closed.Load(); dead != (tick == row.dies) {
					t.Fatalf("tick %d: dead = %v, want %v", tick, dead, tick == row.dies)
				}
				if tick == row.dies {
					break
				}
				if row.challenge {
					queued++ // this tick's heartbeat
				}
				if row.lag >= 0 && tick > row.lag {
					if body, err := readFrame(coord, nil); err != nil || body[0] != msgHeartbeat {
						t.Fatalf("tick %d: want a heartbeat, got %v, %v", tick, body, err)
					}
					read++
				}
			}
			if row.dies == 0 {
				return
			}
			await(t, "the session's end journaled with its reason", func() bool {
				for _, e := range tel.Journal.Events() {
					if e.Kind == obs.EventWorkerReconnect && strings.Contains(e.Msg, row.reason) {
						return true
					}
				}
				return false
			})
			select {
			case <-coords:
			case <-time.After(10 * time.Second):
				t.Fatal("the worker did not redial")
			}
		})
	}
}

// TestWorkerRefusesProtocolViolations plays the coordinator by hand and
// sends the worker a frame the coordinator never sends: flows for an owned
// shard before any routing epoch, which the worker has nothing to classify
// under, or an assign with no series bucket to aggregate into. The worker
// ends the session with the reason journaled and redials.
func TestWorkerRefusesProtocolViolations(t *testing.T) {
	assign := assignMsg{shard: 0, startNanos: tcStart.UnixNano(), bucket: int64(time.Hour)}
	flows := sealFrame(appendFlows(beginFrame(nil), 0, 0, records(testFlows(3))))
	noBucket := assign
	noBucket.bucket = 0
	for _, row := range []struct {
		name   string
		frames [][]byte
		reason string
	}{
		{"flows before any epoch", [][]byte{encodeAssign(assign), flows}, "flows for shard 0 before any routing epoch"},
		{"assign with no bucket", [][]byte{encodeAssign(noBucket)}, "shard 0 assigned with series bucket 0"},
	} {
		t.Run(row.name, func(t *testing.T) {
			tel := obs.NewTelemetry()
			coords := make(chan net.Conn, 4)
			w, err := NewWorker(WorkerConfig{
				Name: "w0",
				Dial: func() (net.Conn, error) {
					coordSide, workerSide := net.Pipe()
					coords <- coordSide
					return workerSide, nil
				},
				InitialBackoff: time.Millisecond,
				MaxBackoff:     time.Millisecond,
				Telemetry:      tel,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() { defer close(done); w.Run(ctx) }()
			coord := <-coords
			t.Cleanup(func() { cancel(); <-done; coord.Close() })

			// net.Pipe is unbuffered: a reader takes the worker's hello and
			// heartbeats while the frames go the other way.
			go func() {
				for {
					if _, err := readFrame(coord, nil); err != nil {
						return
					}
				}
			}()
			for _, frame := range append([][]byte{encodeChallenge(make([]byte, challengeNonceLen))}, row.frames...) {
				if err := writeSealed(coord, frame); err != nil {
					t.Fatal(err)
				}
			}
			await(t, "the session's end journaled with its reason", func() bool {
				for _, e := range tel.Journal.Events() {
					if e.Kind == obs.EventWorkerReconnect && strings.Contains(e.Msg, row.reason) {
						return true
					}
				}
				return false
			})
			select {
			case <-coords:
			case <-time.After(10 * time.Second):
				t.Fatal("the worker did not redial")
			}
		})
	}
}
