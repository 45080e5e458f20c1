package core

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"testing"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
)

// exoticAggregate is a shaped aggregate plus state the shaped traces do not
// reach: negative and jumbo sizes, zero-packet port entries, an empty NTP
// pair map. State no run of Add can produce is refused by the decoder
// instead (TestDecodeCheckpointRefusesWhatAddCannotProduce).
func exoticAggregate(attack bool, n int, seed uint64) *Aggregator {
	a := shapedAggregate(attack, n, seed)
	rng := splitmix(seed ^ 0xe0)
	a.SizeHist.page(TCUnrouted).add(-3, 5)
	a.SizeHist.page(TCBogon).add(-1, rng.next())
	a.SizeHist.page(TCBogon).add(1<<20, 9)
	a.Ports.pair(TCRegular, protoIdx(ipfix.ProtoTCP))[0].add(7, 0)
	a.Ports.pair(TCInvalidFull, protoIdx(ipfix.ProtoUDP))[1].add(uint16(rng.next()), 0)
	a.TriggerPairs[netx.Addr(rng.next())] = map[netx.Addr]uint64{}
	return a
}

// radixAggregate is a small attack-shaped exoticAggregate in which one
// member's invalid origins, one fan-in class's destinations, one destination's
// sources, and the NTP trigger pairs' victims and one victim's amplifiers each
// number 3×netx.RadixMin, so that its encode sorts those sections on
// netx.RadixSort's radix path while the rest stay below netx.RadixMin. The
// member ports (shapedTrace draws them from 1 to 220) are radix-sorted in the
// one digit they do not share, an odd number of passes, which leaves the
// result to be copied back.
func radixAggregate(seed uint64) *Aggregator {
	a := exoticAggregate(true, 500, seed)
	rng := splitmix(seed ^ 0x5a)
	target, spoofed := netx.Addr(rng.next()), netx.Addr(rng.next())
	for i := range 3 * netx.RadixMin {
		v := Verdict{Class: ClassInvalid, Invalid: [numApproaches]bool{true, true, true},
			KnownMember: true, SrcOrigin: bgp.ASN(64000 + i)}
		f := ipfix.Flow{Start: cpStart, Ingress: 220, Protocol: ipfix.ProtoUDP,
			SrcPort: 40000, DstPort: 123, Packets: 1, Bytes: 76}
		// A new spoofed source at one target: its fan-in sources, a
		// trigger-pair victim, a member origin.
		f.SrcAddr, f.DstAddr = netx.Addr(rng.next()), target
		a.Add(f, v)
		// One spoofed source at a new destination: the class's fan-in
		// destinations, that victim's trigger-pair amplifiers.
		f.SrcAddr, f.DstAddr = spoofed, netx.Addr(rng.next())
		a.Add(f, v)
	}
	return a
}

// requireRadixSections fails t unless the member ports, a member's invalid
// origins, a fan-in class's destinations, a destination's sources, the
// trigger pairs' victims and a victim's amplifiers each reach netx.RadixMin
// keys.
func requireRadixSections(t *testing.T, a *Aggregator) {
	t.Helper()
	widest := map[string]int{"member ports": len(a.members), "invalid origins": 0, "fan-in destinations": 0,
		"fan-in sources": 0, "pair victims": len(a.TriggerPairs), "pair amplifiers": 0}
	for _, m := range a.members {
		widest["invalid origins"] = max(widest["invalid origins"], len(m.InvalidOrigins))
	}
	for _, m := range a.FanIn {
		widest["fan-in destinations"] = max(widest["fan-in destinations"], len(m))
		for _, ds := range m {
			widest["fan-in sources"] = max(widest["fan-in sources"], len(ds.Srcs))
		}
	}
	for _, inner := range a.TriggerPairs {
		widest["pair amplifiers"] = max(widest["pair amplifiers"], len(inner))
	}
	for section, n := range widest {
		if n < netx.RadixMin {
			t.Fatalf("the widest %s hold %d keys, short of netx.RadixMin (%d): the radix path goes unchecked", section, n, netx.RadixMin)
		}
	}
}

// TestCodecMatchesOracle is the equivalence property: on random aggregates
// the bulk codec writes the oracle's bytes, and each decoder reads them back
// to a state that either encoder writes as the same bytes again. The last row
// is radixAggregate's, so the equality covers both of netx.RadixSort's
// branches.
func TestCodecMatchesOracle(t *testing.T) {
	const radixRow = 25
	for seed := uint64(1); seed <= radixRow; seed++ {
		rng := splitmix(seed)
		cp := &Checkpoint{
			Ingested: rng.next(), Queued: rng.next(), Shed: rng.next(), Processed: rng.next(),
			Epoch: Epoch(rng.next()), Swaps: rng.next(), StaleVerdicts: rng.next(), Degraded: seed%2 == 0,
		}
		if seed == radixRow {
			cp.Agg = radixAggregate(seed)
			requireRadixSections(t, cp.Agg)
		} else {
			cp.Agg = exoticAggregate(seed%3 == 0, rng.intn(4000), seed)
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

// densePages visits a's dense pages: its port pages, then its size pages.
func densePages(a *Aggregator, fn func(*portPage)) {
	a.Ports.pages(func(_ portPageKey, p *portPage) { fn(p) })
	for _, p := range a.SizeHist.pages {
		if p != nil {
			fn(&p.portPage)
		}
	}
}

// pageContainers counts a dense page and its cell and carry blocks.
func pageContainers(p *portPage) int {
	n := 1
	for b, blk := range p.blk {
		if blk != nil {
			n++
		}
		if p.carry[b] != nil {
			n++
		}
	}
	return n
}

// containers counts what the decoder must allocate one by one: maps, pages,
// cell and carry blocks, series — not their entries. Carry blocks come eight
// to a slab, so counting each one is an upper bound.
func containers(a *Aggregator) (containers, entries int) {
	containers = 2*len(a.members) + len(a.TriggerPairs) + len(a.ResponsePairs)
	for _, m := range a.members {
		entries += len(m.InvalidOrigins)
	}
	for c := range numTrafficClasses {
		if a.Series[c] != nil {
			containers++
			entries += len(a.Series[c])
		}
		if a.Slash8Src[c] != nil {
			containers++
		}
		if a.Slash8Dst[c] != nil {
			containers++
		}
		if a.FanIn[c] != nil {
			containers += 2
		}
	}
	densePages(a, func(p *portPage) {
		containers += pageContainers(p)
		entries += p.n
	})
	for _, p := range a.SizeHist.pages {
		if p != nil {
			containers++ // the spill map
			entries += len(p.spill)
		}
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

// TestMergeCheckpointBytesMatchesMerge: folding an encoded aggregate into a
// receiver leaves exactly the state Merge of its fresh decoding does — on
// shaped and exotic aggregates whose keys partly overlap the receiver's.
func TestMergeCheckpointBytesMatchesMerge(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := splitmix(seed)
		other := &Checkpoint{Ingested: rng.next(), Processed: rng.next(), Epoch: Epoch(rng.next()), Degraded: seed%2 == 0,
			Agg: exoticAggregate(seed%3 == 0, rng.intn(4000), seed)}
		raw := AppendCheckpoint(nil, other)
		n := rng.intn(4000)
		folded, merged := exoticAggregate(seed%2 == 0, n, seed+100), exoticAggregate(seed%2 == 0, n, seed+100)
		head, err := MergeCheckpointBytes(folded, raw)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if head.Agg != nil || head.Ingested != other.Ingested || head.Processed != other.Processed ||
			head.Epoch != other.Epoch || head.Degraded != other.Degraded {
			t.Fatalf("seed %d: header %+v, want the encoded cursor block", seed, head)
		}
		fresh, err := DecodeCheckpointBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		merged.Merge(fresh.Agg)
		got, want := AppendCheckpoint(nil, &Checkpoint{Agg: folded}), AppendCheckpoint(nil, &Checkpoint{Agg: merged})
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: the fold differs from Merge of the decoding at byte %d of %d", seed, firstDiff(got, want), len(want))
		}
		// Reset, the receiver decodes as a fresh one does, its now-empty
		// fan-in classes taken in runs from slabs it has recycled.
		folded.Reset()
		if _, err := MergeCheckpointBytes(folded, raw); err != nil {
			t.Fatal(err)
		}
		got, want = AppendCheckpoint(nil, &Checkpoint{Agg: folded}), AppendCheckpoint(nil, &Checkpoint{Agg: fresh.Agg})
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: decoding into a Reset receiver differs from a fresh decoding at byte %d of %d", seed, firstDiff(got, want), len(want))
		}
	}
}

// TestMergeCheckpointBytesRefusesForeignSeries: an aggregate bucketed from
// another start or in another bucket length would fold into the wrong series
// buckets. It is refused before anything is folded.
func TestMergeCheckpointBytesRefusesForeignSeries(t *testing.T) {
	recv := shapedAggregate(false, 500, 3)
	before := AppendCheckpoint(nil, &Checkpoint{Agg: recv})
	for _, foreign := range []*Aggregator{
		NewAggregator(cpStart, time.Minute),
		NewAggregator(cpStart.Add(time.Nanosecond), time.Hour),
	} {
		foreign.Merge(shapedAggregate(false, 500, 4))
		if _, err := MergeCheckpointBytes(recv, AppendCheckpoint(nil, &Checkpoint{Agg: foreign})); err == nil {
			t.Fatalf("folded an aggregate starting %v in %v buckets into one starting %v in %v buckets",
				foreign.start, foreign.bucket, recv.start, recv.bucket)
		}
		if after := AppendCheckpoint(nil, &Checkpoint{Agg: recv}); !bytes.Equal(after, before) {
			t.Fatal("a refused fold changed the receiver")
		}
	}
}

// TestDecodeCheckpointRefusesRepeatedKeys: the canonical encoding writes
// every section's keys ascending. A key repeated, or out of order, would be
// summed into the entry it repeats, so the decoder refuses it.
func TestDecodeCheckpointRefusesRepeatedKeys(t *testing.T) {
	a := NewAggregator(cpStart, time.Hour)
	for _, port := range []uint32{5, 9} {
		a.members[port] = a.nodes.newMember(port, 0)
	}
	raw := AppendCheckpoint(nil, &Checkpoint{Agg: a})
	if _, err := DecodeCheckpointBytes(raw); err != nil {
		t.Fatal(err)
	}
	second := cpHeaderLen + aggHeadLen + 4 + memberLen + 4 // the second member's port
	for _, port := range []uint32{5, 4} {
		bad := bytes.Clone(raw)
		be.PutUint32(bad[second:], port)
		if _, err := DecodeCheckpointBytes(bad); err == nil {
			t.Fatalf("decoded member port %d after port 5", port)
		}
	}
}

// packBE concatenates vals big-endian, each at its own width.
func packBE(vals ...any) []byte {
	var b []byte
	for _, v := range vals {
		switch v := v.(type) {
		case uint8:
			b = append(b, v)
		case uint16:
			b = be.AppendUint16(b, v)
		case uint32:
			b = be.AppendUint32(b, v)
		case uint64:
			b = be.AppendUint64(b, v)
		case []byte:
			b = append(b, v...)
		default:
			panic(fmt.Sprintf("packBE: %T", v))
		}
	}
	return b
}

// withSection returns an empty aggregate's checkpoint with one per-class
// section — "series", "size histogram", "port-mix", "/8 src", "/8 dst" or
// "fan-in" — replaced by body, its count included.
func withSection(section string, body []byte) []byte {
	raw := AppendCheckpoint(nil, &Checkpoint{Agg: NewAggregator(cpStart, time.Hour)})
	// An empty aggregate's sections after the member count: five zero
	// counts, then three tracked fan-in classes of no destinations.
	at, n := cpHeaderLen+aggHeadLen+4, 4
	switch section {
	case "series":
	case "size histogram":
		at += 4
	case "port-mix":
		at += 8
	case "/8 src":
		at += 12
	case "/8 dst":
		at += 16
	case "fan-in":
		at, n = at+20, 4+3*8
	default:
		panic("withSection: " + section)
	}
	return slices.Concat(raw[:at], body, raw[at+n:])
}

// checkpointShape is one per-class section's bytes spliced into an empty
// aggregate's checkpoint.
type checkpointShape struct {
	name, section string
	body          []byte
}

func (s checkpointShape) raw() []byte { return withSection(s.section, s.body) }

// portEntry is one encoded port-mix entry.
func portEntry(class uint32, proto, dir uint8, port uint16, pkts uint64) []byte {
	return packBE(class, proto, dir, port, pkts)
}

// fanInDst is one encoded fan-in destination with a single source.
func fanInDst(dst, src uint32, pkts uint64) []byte {
	return packBE(dst, pkts, uint64(0), uint32(1), src)
}

var noBins = make([]byte, 256*8)

// acceptedShapes are states Add produces, one per per-class section, written
// by hand as refusedShapes are: the control that the splice is well formed.
var acceptedShapes = []checkpointShape{
	{"series", "series", packBE(uint32(1), uint32(TCInvalidFull), uint32(2), uint64(7), uint64(0))},
	{"size histogram", "size histogram", packBE(uint32(1), uint32(TCInvalidFull), uint32(1), uint64(60), uint64(3))},
	{"port-mix", "port-mix", packBE(uint32(2), portEntry(uint32(TCInvalidFull), 6, 0, 80, 1), portEntry(uint32(TCInvalidFull), 17, 1, 80, 0))},
	// Tallies past a 16-bit cell: carried, one past 1<<32, and one that a
	// uint64 counter reaches only by wrapping.
	{"port-mix past the carry", "port-mix", packBE(uint32(3), portEntry(uint32(TCRegular), 6, 0, 80, 0x10000),
		portEntry(uint32(TCRegular), 6, 0, 443, 1<<32+0xFFFF), portEntry(uint32(TCRegular), 17, 1, 65535, ^uint64(0)))},
	// The same tallies on sizes: a spilled negative quotient (-1), the dense
	// page's last size, and the first spilled one above it.
	{"size histogram past the carry", "size histogram", packBE(uint32(1), uint32(TCRegular), uint32(3),
		^uint64(0), uint64(0x10000), uint64(65535), uint64(1<<32+0xFFFF), uint64(65536), ^uint64(0))},
	{"/8 src", "/8 src", packBE(uint32(1), uint32(TCInvalidFull), noBins)},
	{"/8 dst", "/8 dst", packBE(uint32(1), uint32(TCInvalidFull), noBins)},
	{"fan-in", "fan-in", packBE(uint32(3), uint32(TCBogon), uint32(0), uint32(TCUnrouted), uint32(0), uint32(TCInvalidFull), uint32(1), fanInDst(9, 7, 1))},
}

// refusedShapes are states no run of Add can produce: a class outside the
// enum in every per-class section, an Invalid-NAIVE or Invalid-CC entry in a
// single-class section (primaryClass yields neither), fan-in for an
// untracked class or not for every tracked one, a port-mix protocol other
// than TCP or UDP or a direction other than 0 or 1, a series with no buckets
// and a histogram with no bins.
var refusedShapes = []checkpointShape{
	{"series class NumTrafficClasses", "series", packBE(uint32(1), uint32(NumTrafficClasses), uint32(1), uint64(1))},
	{"series class 90", "series", packBE(uint32(1), uint32(90), uint32(3), uint64(1), uint64(0), uint64(5))},
	{"series of no buckets", "series", packBE(uint32(1), uint32(TCRegular), uint32(0))},
	{"size class NumTrafficClasses", "size histogram", packBE(uint32(1), uint32(NumTrafficClasses), uint32(1), uint64(60), uint64(3))},
	{"size class 11", "size histogram", packBE(uint32(1), uint32(11), uint32(1), ^uint64(2), uint64(5))},
	{"size class of no bins", "size histogram", packBE(uint32(1), uint32(TCBogon), uint32(0))},
	{"port-mix class 9", "port-mix", packBE(uint32(1), portEntry(9, 17, 1, 7, 0))},
	{"port-mix protocol 1", "port-mix", packBE(uint32(1), portEntry(uint32(TCRegular), 1, 0, 7, 1))},
	{"port-mix protocol 132", "port-mix", packBE(uint32(1), portEntry(uint32(TCBogon), 132, 1, 65535, 4))},
	// dir 2 is a distinct key after dir 0: summed into the dir-0 cell, it
	// would fold two encoded keys into one.
	{"port-mix direction 2", "port-mix", packBE(uint32(2), portEntry(uint32(TCRegular), 6, 0, 80, 1), portEntry(uint32(TCRegular), 6, 2, 80, 1))},
	{"/8 src class NumTrafficClasses", "/8 src", packBE(uint32(1), uint32(NumTrafficClasses), noBins)},
	{"/8 dst class 8", "/8 dst", packBE(uint32(1), uint32(8), noBins)},
	{"fan-in class 90", "fan-in", packBE(uint32(1), uint32(90), uint32(1), fanInDst(9, 7, 1))},
	{"fan-in class regular", "fan-in", packBE(uint32(1), uint32(TCRegular), uint32(1), fanInDst(9, 7, 1))},
	{"fan-in class invalid-cc, empty", "fan-in", packBE(uint32(2), uint32(TCUnrouted), uint32(0), uint32(TCInvalidCC), uint32(0))},
	{"series class invalid-naive", "series", packBE(uint32(1), uint32(TCInvalidNaive), uint32(1), uint64(1))},
	{"size class invalid-cc", "size histogram", packBE(uint32(1), uint32(TCInvalidCC), uint32(1), uint64(60), uint64(3))},
	{"port-mix class invalid-naive", "port-mix", packBE(uint32(1), portEntry(uint32(TCInvalidNaive), 6, 0, 80, 1))},
	{"/8 src class invalid-cc", "/8 src", packBE(uint32(1), uint32(TCInvalidCC), noBins)},
	{"/8 dst class invalid-naive", "/8 dst", packBE(uint32(1), uint32(TCInvalidNaive), noBins)},
	// The encoder writes every tracked class: a section naming one of the
	// three would re-encode with all three.
	{"fan-in of one tracked class", "fan-in", packBE(uint32(1), uint32(TCInvalidFull), uint32(1), fanInDst(9, 7, 1))},
}

// TestDecodeCheckpointRefusesWhatAddCannotProduce: a checkpoint's domain is
// the range of Aggregator.Add. Each refused shape is refused by both decoders
// with an error naming its section, while the same section carrying a state
// Add produces decodes.
func TestDecodeCheckpointRefusesWhatAddCannotProduce(t *testing.T) {
	for _, shape := range acceptedShapes {
		if _, err := DecodeCheckpointBytes(shape.raw()); err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		if _, err := oracleDecodeCheckpoint(bytes.NewReader(shape.raw())); err != nil {
			t.Fatalf("%s: oracle: %v", shape.name, err)
		}
	}
	for _, shape := range refusedShapes {
		named, _, _ := strings.Cut(shape.section, " ")
		_, err := DecodeCheckpointBytes(shape.raw())
		_, oracleErr := oracleDecodeCheckpoint(bytes.NewReader(shape.raw()))
		for decoder, err := range map[string]error{"decoder": err, "oracle decoder": oracleErr} {
			if err == nil {
				t.Errorf("%s: the %s accepted it", shape.name, decoder)
			} else if !strings.Contains(err.Error(), named) {
				t.Errorf("%s: the %s's error %q does not name the %s section", shape.name, decoder, err, named)
			}
		}
	}
}

// TestMergeCheckpointBytesAllocatesNothingOverKnownKeys: folding a report
// into an aggregate that already holds every key it carries — the
// coordinator's steady state from the second checkpoint of a feed on —
// allocates nothing: every entry is an add into a node the receiver has.
func TestMergeCheckpointBytesAllocatesNothingOverKnownKeys(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, attack := range []bool{false, true} {
		raw := AppendCheckpoint(nil, &Checkpoint{Agg: shapedAggregate(attack, 50000, 7)})
		recv, err := DecodeCheckpointBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(3, func() {
			if _, err := MergeCheckpointBytes(recv.Agg, raw); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Fatalf("attack=%v: %.0f allocations folding a %d-byte report over known keys, want 0", attack, got, len(raw))
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

// allocatedWithin reports the bytes fn allocates, read by allocatedBy and,
// when that exceeds budget, read again exactly. The runtime counts a small
// allocation when its span leaves a P's cache, so a collection that lands
// inside fn charges it with what earlier calls allocated; a forced collection
// on each side of fn flushes the caches and makes the second reading exact,
// at a cost paid only by a reading over budget.
func allocatedWithin(budget uint64, fn func()) uint64 {
	if used := allocatedBy(fn); used <= budget {
		return used
	}
	runtime.GC()
	return allocatedBy(func() { fn(); runtime.GC() })
}

// decodeBudget is the memory a decode of n input bytes may allocate: the
// empty aggregator, plus a constant factor over the input (a 4-byte source
// address becomes a map slot, a 16-byte port entry can open a 512-byte cell
// block, a 16 KB carry slab and a 13 KB page).
func decodeBudget(n int) uint64 { return 64<<10 + 1024*uint64(n) }

// TestDecodeCheckpointTruncatedAnywhere cuts a valid checkpoint at every
// offset: each prefix must be refused with an error — never a panic, never
// a success — within the memory budget its length allows.
func TestDecodeCheckpointTruncatedAnywhere(t *testing.T) {
	raw := fuzzSeedCheckpoint()
	for cut := 0; cut < len(raw); cut++ {
		var err error
		used := allocatedWithin(decodeBudget(cut), func() { _, err = DecodeCheckpointBytes(raw[:cut]) })
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
			if used := allocatedWithin(decodeBudget(len(raw)), func() { DecodeCheckpointBytes(forged) }); used > decodeBudget(len(raw)) {
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
