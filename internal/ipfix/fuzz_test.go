package ipfix

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// TestDecodeNeverPanics feeds mutated and random messages to the decoder;
// only panics (caught by the runtime) fail the test.
func TestDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	enc := NewEncoder(3)
	msgs := enc.Encode(t0, []Flow{sampleFlow(0), sampleFlow(1)})
	for _, valid := range msgs {
		for i := 0; i < 4000; i++ {
			b := append([]byte(nil), valid...)
			for k := rng.Intn(4) + 1; k > 0; k-- {
				b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
			}
			dec := NewDecoder()
			dec.Decode(b, nil) //nolint:errcheck — only panics matter
		}
	}
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(120))
		rng.Read(b)
		NewDecoder().Decode(b, nil) //nolint:errcheck
	}
}

// replayBoth feeds b to a FileReader and to the TCP collector's connection
// loop, which share one framing loop and differ only in their policy for a
// message that frames but does not decode: the file stops on it with an
// error, the socket counts it and skips it. It returns an error unless they
// agree — the file's batches are the socket's up to the first such message,
// and with none in b both deliver the same batches and reach the same
// verdict on the framing: a clean end, or lost message boundaries.
func replayBoth(b []byte) error {
	var file, sock [][]Flow
	collect := func(into *[][]Flow) func([]Flow) bool {
		return func(batch []Flow) bool {
			*into = append(*into, append([]Flow(nil), batch...))
			return true
		}
	}
	fileErr := NewFileReader(bytes.NewReader(b)).ForEachBatch(collect(&file))
	_, malformed, sockErr := serveStream(bytes.NewReader(b), NewDecoder(), 0, collect(&sock))
	same := func(a, b [][]Flow) bool {
		return slices.EqualFunc(a, b, func(x, y []Flow) bool { return reflect.DeepEqual(x, y) })
	}
	switch {
	case malformed == 0 && !same(file, sock):
		return fmt.Errorf("file delivered %d batches, socket %d", len(file), len(sock))
	case malformed == 0 && (fileErr == nil) != (sockErr == nil):
		return fmt.Errorf("framing verdicts differ: file %v, socket %v", fileErr, sockErr)
	case malformed > 0 && fileErr == nil:
		return fmt.Errorf("socket skipped %d undecodable messages, file read them cleanly", malformed)
	case malformed > 0 && (len(file) > len(sock) || !same(file, sock[:len(file)])):
		return fmt.Errorf("file's %d batches are not the head of the socket's %d", len(file), len(sock))
	}
	return nil
}

// TestServeStreamNeverHangsOrPanics replays mutated and random byte streams
// through the file and socket framing paths. Every input must terminate
// promptly — by delivering flows, counting malformed messages, or failing on
// lost framing — never panic or spin, and read the same on both paths.
func TestServeStreamNeverHangsOrPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	enc := NewEncoder(3)
	var clean bytes.Buffer
	for _, msg := range enc.Encode(t0, []Flow{sampleFlow(0), sampleFlow(1)}) {
		clean.Write(msg)
	}
	run := func(b []byte) {
		done := make(chan error, 1)
		go func() { done <- replayBoth(b) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%d-byte input: %v", len(b), err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("stream framing hung on %d-byte input", len(b))
		}
	}
	for i := 0; i < 3000; i++ {
		b := append([]byte(nil), clean.Bytes()...)
		for k := rng.Intn(6) + 1; k > 0; k-- {
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		run(b[:rng.Intn(len(b)+1)])
	}
	for i := 0; i < 1500; i++ {
		b := make([]byte, rng.Intn(200))
		rng.Read(b)
		run(b)
	}
}

// FuzzServeStream lets `go test -fuzz=FuzzServeStream ./internal/ipfix`
// explore the stream-framing path, differentially: each input goes to the
// file reader and to the socket loop, which must agree (replayBoth). The
// corpus seeds a clean stream and a framed-but-corrupt message.
func FuzzServeStream(f *testing.F) {
	enc := NewEncoder(3)
	var clean bytes.Buffer
	for _, msg := range enc.Encode(t0, []Flow{sampleFlow(0)}) {
		clean.Write(msg)
	}
	f.Add(clean.Bytes())
	f.Add(badFramedMessage())
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := replayBoth(b); err != nil {
			t.Fatal(err)
		}
	})
}
