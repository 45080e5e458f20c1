package core

import (
	"bytes"
	"testing"
	"time"
)

// fuzzSeedCheckpoint builds a valid encoded checkpoint exercising every
// aggregate dimension — the corpus seed from which the fuzzer mutates.
// Verdicts are synthesized directly (no pipeline) so the corpus covers
// members, series, size bins, port mix, /8 bins, fan-in, and NTP pairs.
func fuzzSeedCheckpoint() []byte {
	a := NewAggregator(cpStart, time.Hour)
	flows := checkpointFlows()
	verdicts := []Verdict{
		{Class: ClassValid, KnownMember: true, SrcOrigin: 64500},
		{Class: ClassBogon, KnownMember: true},
		{Class: ClassUnrouted, KnownMember: true},
		{Class: ClassInvalid, Invalid: [numApproaches]bool{true, true, true}, SrcOrigin: 64501, RouterIP: true, KnownMember: true},
		{Class: ClassValid, KnownMember: true, SrcOrigin: 64500},
		{Class: ClassInvalid, Invalid: [numApproaches]bool{true, false, false}, KnownMember: false},
	}
	for i, f := range flows {
		a.Add(f, verdicts[i%len(verdicts)])
	}
	cp := &Checkpoint{
		Ingested: 6, Queued: 6, Processed: 6,
		Epoch: 3, Swaps: 3, StaleVerdicts: 1, Degraded: true,
		Agg: a,
	}
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, cp); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzDecodeCheckpoint feeds truncated, corrupted, and adversarial inputs
// to the slice decoder. The contract under attack: every malformed input
// returns an error — never a panic, and never an allocation proportional to
// a forged element count rather than to the input itself (every count is
// checked against the bytes left before anything is allocated for it). The
// per-primitive oracle decoder must agree on what is a checkpoint at all, and
// inputs that do decode must canonicalize: both decoders' results encode to
// the same bytes, and that encoding is stable under a decode/encode round
// trip, the property the byte-equality oracle rests on.
func FuzzDecodeCheckpoint(f *testing.F) {
	seed := fuzzSeedCheckpoint()
	f.Add(seed)
	f.Add(seed[:8])                       // magic + version only
	f.Add(seed[:len(seed)/2])             // truncated mid-aggregate
	f.Add([]byte("SPCK"))                 // magic, no version
	f.Add([]byte{})                       // empty
	f.Add(bytes.Repeat([]byte{0xff}, 64)) // wrong magic, junk

	// A forged count: valid header, then a member count of ~64M with no
	// backing data — must error on EOF without allocating for the count.
	forged := append([]byte(nil), seed[:67]...) // magic..degraded + agg header (4+2+8*7+1 + 8+8+24+8 + 6*24)
	f.Add(forged)

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpointBytes(data)
		ref, refErr := oracleDecodeCheckpoint(bytes.NewReader(data))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoders disagree on the input: slice decoder %v, oracle %v", err, refErr)
		}
		if err != nil {
			return
		}
		// Successful decodes must re-encode, and the re-encoding must be a
		// fixed point: decode(encode(cp)) encodes to the same bytes.
		var once, viaOracle bytes.Buffer
		if err := EncodeCheckpoint(&once, cp); err != nil {
			t.Fatalf("re-encoding a decoded checkpoint failed: %v", err)
		}
		if err := EncodeCheckpoint(&viaOracle, ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), viaOracle.Bytes()) {
			t.Fatal("the slice decoder and the oracle decoded different states from one input")
		}
		cp2, err := DecodeCheckpointBytes(once.Bytes())
		if err != nil {
			t.Fatalf("decoding a re-encoded checkpoint failed: %v", err)
		}
		var twice bytes.Buffer
		if err := EncodeCheckpoint(&twice, cp2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("re-encoding is not canonical: encode(decode(encode(cp))) differs")
		}
	})
}
