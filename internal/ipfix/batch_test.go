package ipfix

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// TestFileReaderForEachBatch: the batch iterator delivers each data
// message's flows as one slice, in file order, and stops early on false.
func TestFileReaderForEachBatch(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFileWriter(&buf, 3)
	var want []Flow
	for msg := 0; msg < 4; msg++ {
		flows := make([]Flow, 5)
		for i := range flows {
			flows[i] = sampleFlow(msg*5 + i)
		}
		want = append(want, flows...)
		if err := fw.Write(t0, flows); err != nil {
			t.Fatal(err)
		}
	}
	fw.Flush()

	fr := NewFileReader(bytes.NewReader(buf.Bytes()))
	var got []Flow
	batches := 0
	if err := fr.ForEachBatch(func(batch []Flow) bool {
		batches++
		got = append(got, batch...) // copy out: the slice is reused scratch
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if batches != 4 {
		t.Fatalf("delivered %d batches, want 4", batches)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("batch round trip mismatch: %d vs %d flows", len(want), len(got))
	}

	// Early stop after the first batch.
	fr = NewFileReader(bytes.NewReader(buf.Bytes()))
	batches = 0
	if err := fr.ForEachBatch(func([]Flow) bool { batches++; return false }); err != nil {
		t.Fatal(err)
	}
	if batches != 1 {
		t.Fatalf("early stop visited %d batches, want 1", batches)
	}
}

// TestFileReaderZeroAllocSteadyState proves the decode-into-batch contract:
// after the reader's scratch (message buffer + flow batch) has grown to the
// stream's message size, NextBatch performs zero allocations per message.
func TestFileReaderZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts asserted in the non-race run")
	}
	var buf bytes.Buffer
	fw := NewFileWriter(&buf, 1)
	// 25 flows = the encoder's default records-per-message, so each Write
	// frames exactly one data message and NextBatch returns all 25.
	flows := make([]Flow, 25)
	for i := range flows {
		flows[i] = sampleFlow(i)
	}
	const messages = 512
	for m := 0; m < messages; m++ {
		if err := fw.Write(t0, flows); err != nil {
			t.Fatal(err)
		}
	}
	fw.Flush()

	fr := NewFileReader(bytes.NewReader(buf.Bytes()))
	// Warm-up: template parse, scratch growth, bufio fill.
	for i := 0; i < 4; i++ {
		if _, err := fr.NextBatch(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		batch, err := fr.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(flows) {
			t.Fatalf("batch size %d, want %d", len(batch), len(flows))
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state NextBatch allocates %.1f objects per message, want 0", avg)
	}
}

// TestTCPServeBatch: the stream collector's batch path delivers each
// message's flows as one slice with the same content and counters as the
// per-flow path.
func TestTCPServeBatch(t *testing.T) {
	col, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	go func() {
		exp, err := DialTCP(col.Addr().String(), 9)
		if err != nil {
			return
		}
		exp.Export(t0, []Flow{sampleFlow(0), sampleFlow(1)})
		exp.Export(t0, []Flow{sampleFlow(2)})
		exp.Close()
	}()
	var got []Flow
	batches := 0
	n, err := col.AcceptOneBatch(func(batch []Flow) bool {
		batches++
		got = append(got, batch...)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(got) != 3 || batches != 2 {
		t.Fatalf("n=%d flows=%d batches=%d, want 3/3/2", n, len(got), batches)
	}
	want := []Flow{sampleFlow(0), sampleFlow(1), sampleFlow(2)}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("batch content mismatch")
	}
	if st := col.Stats(); st.Flows != 3 || st.Connections != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestUDPServeBatch: one batch per datagram; fn false stops serving.
func TestUDPServeBatch(t *testing.T) {
	col, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	exp, err := DialUDP(col.Addr().String(), 5)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	want := []Flow{sampleFlow(0), sampleFlow(1), sampleFlow(2)}
	if err := exp.Export(t0, want); err != nil {
		t.Fatal(err)
	}
	var got []Flow
	malformed, err := col.ServeBatch(time.Now().Add(2*time.Second), func(batch []Flow) bool {
		got = append(got, batch...)
		return false // first data batch is enough: fn false must stop Serve
	})
	if err != nil || malformed != 0 {
		t.Fatalf("malformed=%d err=%v", malformed, err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("UDP batch mismatch: got %d flows", len(got))
	}
}

// TestServeStreamZeroAllocSteadyState drives serveStream over an in-memory
// stream of many identical messages and asserts the whole decode path — the
// framing read, the pooled message scratch, and AppendFlows into the pooled
// batch — settles to zero allocations per message.
func TestServeStreamZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts asserted in the non-race run")
	}
	enc := NewEncoder(1)
	flows := make([]Flow, 64)
	for i := range flows {
		flows[i] = sampleFlow(i)
	}
	var stream bytes.Buffer
	messages := 0
	for m := 0; m < 512; m++ {
		for _, msg := range enc.Encode(t0, flows) {
			stream.Write(msg)
			messages++
		}
	}
	data := stream.Bytes()

	// Count allocations across a full stream after one warm-up stream; the
	// per-connection scratch recirculates through the pool between runs.
	dec := NewDecoder()
	run := func() {
		n, malformed, err := serveStream(bytes.NewReader(data), dec, 0,
			func([]Flow) bool { return true })
		if err != nil || malformed != 0 {
			t.Fatalf("serveStream: n=%d malformed=%d err=%v", n, malformed, err)
		}
	}
	run() // warm: template state, pool population, buffer growth
	avg := testing.AllocsPerRun(3, run)
	// One bufio.Reader (64 KiB) and a bytes.Reader per run are the harness's
	// own per-connection setup; amortized over the stream's messages the
	// per-message budget must be < 0.1 allocations — a per-message alloc
	// anywhere in the loop would show up as >= 1 per message here.
	perMessage := avg / float64(messages)
	if perMessage >= 0.1 {
		t.Fatalf("steady-state stream decode allocates %.2f objects per message, want ~0", perMessage)
	}
}
