package ipfix

import (
	"reflect"
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
