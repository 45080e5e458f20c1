package ipfix

import (
	"bytes"
	"math/rand"
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

// TestServeStreamNeverHangsOrPanics replays mutated and random byte streams
// through the TCP framing path. Every input must terminate promptly — by
// delivering flows, counting malformed messages, or failing on lost framing —
// and never panic or spin.
func TestServeStreamNeverHangsOrPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	enc := NewEncoder(3)
	var clean bytes.Buffer
	for _, msg := range enc.Encode(t0, []Flow{sampleFlow(0), sampleFlow(1)}) {
		clean.Write(msg)
	}
	run := func(b []byte) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			serveStream(bytes.NewReader(b), NewDecoder(), 0, func([]Flow) bool { return true }) //nolint:errcheck
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("serveStream hung on %d-byte input", len(b))
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
// explore the stream-framing path; the corpus seeds a clean stream and a
// framed-but-corrupt message.
func FuzzServeStream(f *testing.F) {
	enc := NewEncoder(3)
	var clean bytes.Buffer
	for _, msg := range enc.Encode(t0, []Flow{sampleFlow(0)}) {
		clean.Write(msg)
	}
	f.Add(clean.Bytes())
	f.Add(badFramedMessage())
	f.Fuzz(func(t *testing.T, b []byte) {
		serveStream(bytes.NewReader(b), NewDecoder(), 0, func([]Flow) bool { return true }) //nolint:errcheck
	})
}
