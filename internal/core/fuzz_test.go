package core

import (
	"bytes"
	"slices"
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
// trip, the property the byte-equality oracle rests on. And since decoding
// is a merge, folding an input into a receiver that already holds state must
// match Merge of the input's fresh decoding.
func FuzzDecodeCheckpoint(f *testing.F) {
	seed := fuzzSeedCheckpoint()
	f.Add(seed)
	f.Add(seed[:8])                       // magic + version only
	f.Add(seed[:len(seed)/2])             // truncated inside the aggregate
	f.Add([]byte("SPCK"))                 // magic, no version
	f.Add([]byte{})                       // empty
	f.Add(bytes.Repeat([]byte{0xff}, 64)) // wrong magic, junk

	// A forged count: valid header, then a member count of ~64M with no
	// backing data — must error on EOF without allocating for the count.
	forged := append([]byte(nil), seed[:67]...) // magic..degraded + agg header (4+2+8*7+1 + 8+8+24+8 + 6*24)
	f.Add(forged)

	// Every uint32-keyed section kind at netx.RadixMin keys or more, so that
	// the re-encodes sort on both of netx.RadixSort's branches. The oracle
	// writes it, so a production sort gone wrong shows as a re-encode that
	// does not decode.
	var radix bytes.Buffer
	if err := oracleEncodeCheckpoint(&radix, &Checkpoint{Agg: radixAggregate(1)}); err != nil {
		f.Fatal(err)
	}
	f.Add(radix.Bytes())

	// Every shape the decoders refuse as state Aggregator.Add cannot produce,
	// and a state Add produces in each per-class section, so the fuzzer
	// starts at the edge of the domain.
	for _, shape := range slices.Concat(refusedShapes, acceptedShapes) {
		f.Add(shape.raw())
	}

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
		// Decoding is a merge: folding the input into a receiver that holds
		// state already — the seed's, or the input's own — leaves what Merge
		// of the fresh decoding does, and a receiver bucketed otherwise
		// refuses it.
		for _, base := range [][]byte{seed, data} {
			recv, err := DecodeCheckpointBytes(base)
			if err != nil {
				t.Fatal(err)
			}
			_, err = MergeCheckpointBytes(recv.Agg, data)
			if recv.Agg.start.UnixNano() != cp.Agg.start.UnixNano() || recv.Agg.bucket != cp.Agg.bucket {
				if err == nil {
					t.Fatal("folded an aggregate into a receiver with another start or bucket")
				}
				continue
			}
			if err != nil {
				t.Fatalf("folding a decodable checkpoint failed: %v", err)
			}
			want, err := DecodeCheckpointBytes(base)
			if err != nil {
				t.Fatal(err)
			}
			want.Agg.Merge(cp.Agg)
			got, wantBytes := AppendCheckpoint(nil, recv), AppendCheckpoint(nil, want)
			if !bytes.Equal(got, wantBytes) {
				t.Fatalf("folding the input differs from Merge of its decoding at byte %d", firstDiff(got, wantBytes))
			}
		}
	})
}
