package ipfix

import (
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestTCPExportCollect(t *testing.T) {
	col, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	want := make([]Flow, 120)
	for i := range want {
		want[i] = sampleFlow(i)
	}

	go func() {
		exp, err := DialTCP(col.Addr().String(), 9)
		if err != nil {
			t.Error(err)
			return
		}
		// Two batches over one connection: the template goes once.
		if err := exp.Export(t0, want[:50]); err != nil {
			t.Error(err)
		}
		if err := exp.Export(t0, want[50:]); err != nil {
			t.Error(err)
		}
		exp.Close()
	}()

	var got []Flow
	st := serveOne(t, col, func(batch []Flow) bool {
		got = append(got, batch...)
		return true
	})
	if st.Flows != len(want) || st.Disconnects != 0 {
		t.Fatalf("delivered %d of %d flows, %d disconnects", st.Flows, len(want), st.Disconnects)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("TCP round trip mismatch")
	}
}

func TestTCPCollectorEarlyStop(t *testing.T) {
	col, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	go func() {
		exp, err := DialTCP(col.Addr().String(), 1)
		if err != nil {
			return
		}
		defer exp.Close()
		flows := make([]Flow, 100)
		for i := range flows {
			flows[i] = sampleFlow(i)
		}
		exp.Export(t0, flows)
	}()
	// The callback stops on the first batch it sees; the collector stops the
	// stream there, and counts the batch it had handed over whole.
	calls, handed := 0, 0
	st := serveOne(t, col, func(batch []Flow) bool {
		calls++
		handed += len(batch)
		return false
	})
	if calls != 1 {
		t.Fatalf("callback called %d times after returning false on the first batch", calls)
	}
	if st.Flows != handed || handed == 0 || st.Disconnects != 0 {
		t.Fatalf("early stop counted %d flows (%d disconnects), the one batch handed over held %d", st.Flows, st.Disconnects, handed)
	}
}

// closingListener's Accept returns its one connection only once Close has
// begun, so the connection reaches ServeBatch after the collector's Close or
// Shutdown has already looked at the live connections.
type closingListener struct {
	conn    net.Conn
	handed  bool // read and written only by the accepting goroutine
	closing chan struct{}
	once    sync.Once
}

func (l *closingListener) Accept() (net.Conn, error) {
	<-l.closing
	if !l.handed {
		l.handed = true
		return l.conn, nil
	}
	return nil, net.ErrClosed
}

func (l *closingListener) Close() error {
	l.once.Do(func() { close(l.closing) })
	return nil
}

func (l *closingListener) Addr() net.Addr { return l.conn.LocalAddr() }

// TestTCPCollectorRefusesConnAcceptedDuringClose: a connection that Accept
// returns while Close or Shutdown runs is closed, not served, so ServeBatch
// returns instead of waiting for an exporter that never hangs up.
func TestTCPCollectorRefusesConnAcceptedDuringClose(t *testing.T) {
	for name, stop := range map[string]func(*TCPCollector) error{
		"Close":    (*TCPCollector).Close,
		"Shutdown": (*TCPCollector).Shutdown,
	} {
		t.Run(name, func(t *testing.T) {
			server, client := net.Pipe()
			defer client.Close()
			col := &TCPCollector{
				ln:    &closingListener{conn: server, closing: make(chan struct{})},
				conns: make(map[net.Conn]struct{}),
			}
			done := make(chan error, 1)
			go func() { done <- col.ServeBatch(func([]Flow) bool { return true }) }()
			if err := stop(col); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("ServeBatch still serving a connection accepted during %s", name)
			}
			if st := col.Stats(); st.Connections != 0 {
				t.Fatalf("%d connections served after %s", st.Connections, name)
			}
		})
	}
}

// serveOne runs col.ServeBatch until its first exporter connection has
// ended: once that connection is accepted, Shutdown stops accepting and
// waits for it. It returns the collector's stats.
func serveOne(t *testing.T, col *TCPCollector, fn func([]Flow) bool) CollectorStats {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- col.ServeBatch(fn) }()
	for col.Stats().Connections == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := col.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return col.Stats()
}
