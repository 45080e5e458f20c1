package ipfix

import (
	"reflect"
	"testing"
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
	n, err := col.AcceptOneBatch(func(batch []Flow) bool {
		got = append(got, batch...)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("delivered %d of %d flows", n, len(want))
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
	// The per-flow callback stops on the first flow it sees; the collector
	// stops the stream there, and counts the batch it had handed over whole.
	seen, handed := 0, 0
	perFlow := PerFlow(func(Flow) bool { seen++; return false })
	n, err := col.AcceptOneBatch(func(batch []Flow) bool {
		handed += len(batch)
		return perFlow(batch)
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Fatalf("callback saw %d flows after returning false on the first", seen)
	}
	if n != handed || n == 0 {
		t.Fatalf("early stop counted %d flows, the one batch handed over held %d", n, handed)
	}
}
