package core

import (
	"bytes"
	"fmt"
	"io"
	"runtime/metrics"
	"testing"

	"spoofscope/internal/netx"
)

// exoticAggregate is a shaped aggregate plus the state only a decoded
// checkpoint can carry: classes outside the enum, port pages of protocols Add
// never records, a histogram with no bins, an empty series, negative sizes.
func exoticAggregate(attack bool, n int, seed uint64) *Aggregator {
	a := shapedAggregate(attack, n, seed)
	rng := splitmix(seed ^ 0xe0)
	a.Series[TrafficClass(40+rng.intn(5))] = []uint64{}
	a.Series[TrafficClass(90)] = []uint64{1, 0, uint64(rng.next())}
	a.SizeHist.Touch(TrafficClass(7))
	a.SizeHist.Set(TrafficClass(11), -3, 5)
	a.SizeHist.Set(TCBogon, -1, rng.next())
	a.SizeHist.Set(TCBogon, 1<<20, 9)
	a.Ports.Set(PortKey{Class: TCRegular, Proto: 1, Dir: 0, Port: 7}, 1)
	a.Ports.Set(PortKey{Class: TrafficClass(9), Proto: 17, Dir: 1, Port: uint16(rng.next())}, 0)
	a.Ports.Set(PortKey{Class: TCBogon, Proto: 132, Dir: 1, Port: 65535}, rng.next())
	a.Slash8Dst[TrafficClass(8)] = &[256]uint64{255: 1}
	a.FanIn[TCRegular] = map[netx.Addr]*DstStats{7: {Packets: 1}}
	a.TriggerPairs[netx.Addr(rng.next())] = map[netx.Addr]uint64{}
	return a
}

// TestCodecMatchesOracle is the equivalence property: on random aggregates
// the bulk codec writes the oracle's bytes, and each decoder reads them back
// to a state that either encoder writes as the same bytes again.
func TestCodecMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		rng := splitmix(seed)
		cp := &Checkpoint{
			Ingested: rng.next(), Queued: rng.next(), Shed: rng.next(), Processed: rng.next(),
			Epoch: Epoch(rng.next()), Swaps: rng.next(), StaleVerdicts: rng.next(), Degraded: seed%2 == 0,
			Agg: exoticAggregate(seed%3 == 0, rng.intn(4000), seed),
		}
		var want bytes.Buffer
		if err := oracleEncodeCheckpoint(&want, cp); err != nil {
			t.Fatal(err)
		}
		if got := encodeAgg(t, cp); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("seed %d: bulk encoder differs from the oracle at byte %d of %d", seed, firstDiff(got, want.Bytes()), want.Len())
		}
		fromBulk, err := DecodeCheckpointBytes(want.Bytes())
		if err != nil {
			t.Fatalf("seed %d: bulk decoder: %v", seed, err)
		}
		fromOracle, err := oracleDecodeCheckpoint(bytes.NewReader(want.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: oracle decoder: %v", seed, err)
		}
		fromStream, err := DecodeCheckpoint(io.MultiReader(bytes.NewReader(want.Bytes()))) // a reader with no Len
		if err != nil {
			t.Fatalf("seed %d: stream decoder: %v", seed, err)
		}
		var viaOracle bytes.Buffer
		if err := oracleEncodeCheckpoint(&viaOracle, fromBulk); err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string][]byte{
			"bulk decode, oracle encode": viaOracle.Bytes(),
			"bulk decode, bulk encode":   encodeAgg(t, fromBulk),
			"oracle decode, bulk encode": encodeAgg(t, fromOracle),
			"stream decode, bulk encode": encodeAgg(t, fromStream),
		} {
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("seed %d: %s differs at byte %d", seed, name, firstDiff(got, want.Bytes()))
			}
		}
	}
}

// failAfter is a writer that accepts n bytes, then fails.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n -= len(p); w.n < 0 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

func TestEncodeCheckpointReportsWriteErrors(t *testing.T) {
	cp := goldenCheckpoint(false)
	for _, n := range []int{0, cpChunk, 3 * cpChunk} {
		if err := EncodeCheckpoint(&failAfter{n: n}, cp); err == nil {
			t.Fatalf("a writer failing after %d bytes went unreported", n)
		}
	}
}

// TestEncodeCheckpointAllocsConstant: the encoder allocates its chunk and a
// handful of key-sorting scratch slices — a number that does not grow with
// the state, where the per-primitive codec allocated once per field.
func TestEncodeCheckpointAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const bound = 24
	for _, attack := range []bool{false, true} {
		for _, n := range []int{500, 50000} {
			cp := &Checkpoint{Agg: shapedAggregate(attack, n, 7)}
			size := len(AppendCheckpoint(nil, cp))
			stream := testing.AllocsPerRun(5, func() {
				if err := EncodeCheckpoint(io.Discard, cp); err != nil {
					t.Fatal(err)
				}
			})
			frame := make([]byte, 0, size)
			appended := testing.AllocsPerRun(5, func() { frame = AppendCheckpoint(frame[:0], cp) })
			t.Logf("attack=%v n=%d: %d bytes, %.0f allocs streamed, %.0f appended into a sized frame", attack, n, size, stream, appended)
			if stream > bound || appended > bound {
				t.Fatalf("attack=%v n=%d: %.0f / %.0f allocations per encode, want at most %d whatever the size", attack, n, stream, appended, bound)
			}
		}
	}
}

// containers counts what the decoder must allocate one by one: maps, pages,
// counter blocks, series — not their entries.
func containers(a *Aggregator) (containers, entries int) {
	containers = 2*len(a.members) + len(a.Series) + len(a.Slash8Src) + len(a.Slash8Dst) + 2*len(a.FanIn) +
		len(a.TriggerPairs) + len(a.ResponsePairs)
	for _, m := range a.members {
		entries += len(m.InvalidOrigins)
	}
	for _, s := range a.Series {
		entries += len(s)
	}
	a.Ports.pages(func(_ portPageKey, p *portPage) {
		containers++
		for _, blk := range p.blk {
			if blk != nil {
				containers++
			}
		}
		entries += p.n
	})
	for _, c := range a.SizeHist.classList(nil) {
		containers++
		entries += a.SizeHist.ClassLen(c)
	}
	for _, m := range a.FanIn {
		entries += len(m)
		for _, ds := range m {
			if ds.Srcs != nil {
				containers++
				entries += len(ds.Srcs)
			}
		}
	}
	for _, pairs := range []map[netx.Addr]map[netx.Addr]uint64{a.TriggerPairs, a.ResponsePairs} {
		for _, inner := range pairs {
			entries += len(inner)
		}
	}
	return containers, entries
}

// TestDecodeCheckpointAllocsPerContainer: the decoder allocates per
// container (a few objects each: a map is a header plus its tables, and the
// runtime splits a large map into tables of a thousand slots), not per
// decoded field.
func TestDecodeCheckpointAllocsPerContainer(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, attack := range []bool{false, true} {
		for _, n := range []int{500, 50000} {
			a := shapedAggregate(attack, n, 7)
			raw := AppendCheckpoint(nil, &Checkpoint{Agg: a})
			cs, es := containers(a)
			got := testing.AllocsPerRun(3, func() {
				if _, err := DecodeCheckpointBytes(raw); err != nil {
					t.Fatal(err)
				}
			})
			bound := float64(64 + 4*cs + es/64)
			t.Logf("attack=%v n=%d: %d bytes, %d containers, %d entries, %.0f allocs (bound %.0f)", attack, n, len(raw), cs, es, got, bound)
			if got > bound {
				t.Fatalf("attack=%v n=%d: %.0f allocations decoding %d containers holding %d entries, want at most %.0f",
					attack, n, got, cs, es, bound)
			}
		}
	}
}

// allocatedBy reports the bytes fn allocates (runtime/metrics: no
// stop-the-world per reading, unlike ReadMemStats).
func allocatedBy(fn func()) uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	fn()
	metrics.Read(sample)
	return sample[0].Value.Uint64() - before
}

// decodeBudget is the memory a decode of n input bytes may allocate: the
// empty aggregator, plus a constant factor over the input (a 4-byte source
// address becomes a map slot, a 16-byte port entry can open a 2 KB counter
// block and a 10 KB page).
func decodeBudget(n int) uint64 { return 64<<10 + 1024*uint64(n) }

// TestDecodeCheckpointTruncatedAnywhere cuts a valid checkpoint at every
// offset: each prefix must be refused with an error — never a panic, never
// a success — within the memory budget its length allows.
func TestDecodeCheckpointTruncatedAnywhere(t *testing.T) {
	raw := fuzzSeedCheckpoint()
	for cut := 0; cut < len(raw); cut++ {
		var err error
		used := allocatedBy(func() { _, err = DecodeCheckpointBytes(raw[:cut]) })
		if err == nil {
			t.Fatalf("decoder accepted a checkpoint cut at byte %d of %d", cut, len(raw))
		}
		if used > decodeBudget(cut) {
			t.Fatalf("cut at %d: decoder allocated %d bytes", cut, used)
		}
	}
	// The committed goldens are too long to cut everywhere; cut them at a
	// stride that lands inside every section.
	for _, shape := range goldenShapes {
		raw := AppendCheckpoint(nil, goldenCheckpoint(shape.attack))
		for cut := 0; cut < len(raw); cut += 211 {
			if _, err := DecodeCheckpointBytes(raw[:cut]); err == nil {
				t.Fatalf("%s: decoder accepted a checkpoint cut at byte %d of %d", shape.name, cut, len(raw))
			}
		}
	}
}

// TestDecodeCheckpointForgedCounts overwrites every position of a valid
// checkpoint with a huge big-endian count. Wherever that lands on a real
// count field the decoder must refuse it before allocating for it; wherever
// it lands on data the decode may succeed, but memory stays within what the
// input's length allows.
func TestDecodeCheckpointForgedCounts(t *testing.T) {
	if used := allocatedBy(func() { forgedSink = make([]byte, 1<<20) }); used < 1<<20 {
		t.Fatalf("the allocation meter saw %d bytes of a 1 MB allocation", used)
	}
	raw := fuzzSeedCheckpoint()
	forged := make([]byte, len(raw))
	step := 1
	if raceEnabled {
		step = 7 // every offset costs half a minute raced; the plain run covers them all
	}
	for _, count := range []uint32{0xffffffff, 1 << 20} {
		for at := cpHeaderLen; at+4 <= len(raw); at += step {
			copy(forged, raw)
			be.PutUint32(forged[at:], count)
			if used := allocatedBy(func() { DecodeCheckpointBytes(forged) }); used > decodeBudget(len(raw)) {
				t.Fatalf("count %#x forged at byte %d: decoder allocated %d bytes for a %d-byte input", count, at, used, len(raw))
			}
		}
	}
}

var forgedSink []byte

func BenchmarkCheckpointCodecOracle(b *testing.B) {
	for _, shape := range goldenShapes {
		cp := &Checkpoint{Agg: shapedAggregate(shape.attack, 100000, 1)}
		raw := AppendCheckpoint(nil, cp)
		for _, codec := range []struct {
			name   string
			encode func(io.Writer, *Checkpoint) error
			decode func([]byte) (*Checkpoint, error)
		}{
			{"bulk", EncodeCheckpoint, DecodeCheckpointBytes},
			{"oracle", oracleEncodeCheckpoint, func(b []byte) (*Checkpoint, error) { return oracleDecodeCheckpoint(bytes.NewReader(b)) }},
		} {
			b.Run(fmt.Sprintf("encode/%s/%s", shape.name, codec.name), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(raw)))
				for i := 0; i < b.N; i++ {
					if err := codec.encode(io.Discard, cp); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("decode/%s/%s", shape.name, codec.name), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(raw)))
				for i := 0; i < b.N; i++ {
					if _, err := codec.decode(raw); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
