package cluster

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"slices"
	"testing"
	"time"

	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
)

// The flow plane's oracle: the per-flow codec the coordinator ran before its
// replay buffer held wire records. It encodes a flow field by field through
// the scalar appenders and decodes one through the bounds-checked cursor, and
// it frames and persists []ipfix.Flow batches. The production path — records
// encoded once at ingest, copied or deflated into frames and embedded in the
// ledger as they are, decoded from fixed offsets — must write the bytes it
// writes and read back the flows it reads.

// oracleAppendFlow is the field-by-field flow encoder.
func oracleAppendFlow(b []byte, f ipfix.Flow) []byte {
	b = appendU64(b, uint64(f.Start.UnixNano()))
	b = appendU32(b, uint32(f.SrcAddr))
	b = appendU32(b, uint32(f.DstAddr))
	b = appendU16(b, f.SrcPort)
	b = appendU16(b, f.DstPort)
	b = append(b, f.Protocol, f.TCPFlags)
	b = appendU64(b, f.Packets)
	b = appendU64(b, f.Bytes)
	b = appendU32(b, f.Ingress)
	return appendU32(b, f.Egress)
}

// flow is the cursor decoder of one flow.
func (r *reader) flow() ipfix.Flow {
	var f ipfix.Flow
	f.Start = time.Unix(0, int64(r.U64())).UTC()
	f.SrcAddr = netx.Addr(r.U32())
	f.DstAddr = netx.Addr(r.U32())
	f.SrcPort = r.U16()
	f.DstPort = r.U16()
	f.Protocol = r.U8()
	f.TCPFlags = r.U8()
	f.Packets = r.U64()
	f.Bytes = r.U64()
	f.Ingress = r.U32()
	f.Egress = r.U32()
	return f
}

// oracleRecords encodes flows one after another.
func oracleRecords(flows []ipfix.Flow) []byte {
	var raw []byte
	for _, f := range flows {
		raw = oracleAppendFlow(raw, f)
	}
	return raw
}

// oracleFrame is m's wire-ready frame, deflated or not.
func oracleFrame(m flowsMsg, compress bool) []byte {
	raw := oracleRecords(m.flows)
	b := beginFrame(nil)
	if !compress {
		b = append(b, msgFlows)
		b = appendU32(b, m.shard)
		b = appendU64(b, m.base)
		b = appendU32(b, uint32(len(m.flows)))
		return sealFrame(append(b, raw...))
	}
	var z bytes.Buffer
	zw, _ := flate.NewWriter(&z, flate.DefaultCompression)
	zw.Write(raw)
	zw.Close()
	b = append(b, msgFlowsZ)
	b = appendU32(b, m.shard)
	b = appendU64(b, m.base)
	b = appendU32(b, uint32(len(m.flows)))
	b = appendU32(b, uint32(len(raw)))
	b = appendU32(b, uint32(z.Len()))
	return sealFrame(append(b, z.Bytes()...))
}

// oracleDecode decodes a flow frame body one cursor read at a time.
func oracleDecode(t testing.TB, body []byte) flowsMsg {
	t.Helper()
	r := newReader(body[1:])
	m := flowsMsg{shard: r.U32(), base: r.U64()}
	n := int(r.U32())
	raw := body[1+4+8+4:]
	if body[0] == msgFlowsZ {
		r.U32() // raw length
		inflated, err := io.ReadAll(flate.NewReader(bytes.NewReader(r.bytes())))
		if err != nil {
			t.Fatal(err)
		}
		raw = inflated
	}
	fr := newReader(raw)
	for range n {
		m.flows = append(m.flows, fr.flow())
	}
	if err := fr.done(); err != nil {
		t.Fatal(err)
	}
	return m
}

// oracleLedger encodes bk's durable state with each shard's replay tail
// given as flows, encoded one at a time.
func oracleLedger(bk *book, tails [][]ipfix.Flow) []byte {
	b := append([]byte(nil), ledgerMagic...)
	b = appendU64(b, uint64(bk.startNanos))
	b = appendU64(b, uint64(bk.bucket))
	b = appendU64(b, bk.epochSeq)
	if bk.haveFP {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendDigest(b, bk.lastFP.Paths)
	b = appendDigest(b, bk.lastFP.Anns)
	b = appendU32(b, uint32(len(bk.epochFull)))
	b = append(b, bk.epochFull...)
	b = appendU64(b, bk.flowsRouted)
	b = appendU32(b, uint32(len(bk.shards)))
	for i := range bk.shards {
		s := &bk.shards[i]
		b = appendU64(b, s.cursor)
		b = appendU64(b, s.ackBase)
		b = appendU32(b, uint32(len(s.lastOwner)))
		b = append(b, s.lastOwner...)
		b = appendU32(b, uint32(len(s.lastReport)))
		b = append(b, s.lastReport...)
		b = appendU32(b, uint32(len(tails[i])))
		b = append(b, oracleRecords(tails[i])...)
	}
	return b
}

// records encodes flows with the production encoder.
func records(flows []ipfix.Flow) []byte {
	var recs []byte
	for i := range flows {
		recs = appendFlow(recs, &flows[i])
	}
	return recs
}

// randomFlows draws n flows with every field random, starts anywhere in the
// int64 nanosecond range and in UTC, as a decoded flow's are.
func randomFlows(rng *rand.Rand, n int) []ipfix.Flow {
	flows := make([]ipfix.Flow, n)
	for i := range flows {
		flows[i] = ipfix.Flow{
			Start:    time.Unix(0, int64(rng.Uint64())).UTC(),
			SrcAddr:  netx.Addr(rng.Uint32()),
			DstAddr:  netx.Addr(rng.Uint32()),
			SrcPort:  uint16(rng.Uint32()),
			DstPort:  uint16(rng.Uint32()),
			Protocol: uint8(rng.Uint32()),
			TCPFlags: uint8(rng.Uint32()),
			Packets:  rng.Uint64(),
			Bytes:    rng.Uint64(),
			Ingress:  rng.Uint32(),
			Egress:   rng.Uint32(),
		}
	}
	return flows
}

// TestFlowPlaneMatchesOracle drives the book's flow plane over random flows
// — ingest, flush, durable reports that compact the replay buffer — and
// holds every frame it queues to the oracle's bytes, every decode to the
// oracle's flows (== on each, so Start's location too) and the ledger it
// persists to the one the per-flow encoder wrote.
func TestFlowPlaneMatchesOracle(t *testing.T) {
	for _, compress := range []bool{false, true} {
		rng := rand.New(rand.NewSource(52))
		r := newBookRig(t, 3, 7)
		r.b.compress = compress
		w := r.connect(0)
		r.hello(w, "node-1", true)
		r.epoch()
		r.deliver(w)
		routed := make([][]ipfix.Flow, len(r.b.shards))
		var sc flowScratch
		for round := range 6 {
			flows := randomFlows(rng, 40+rng.Intn(40))
			for _, f := range flows {
				s := ShardOf(f.Ingress, len(routed))
				routed[s] = append(routed[s], f)
			}
			r.b.ingest(flows)
			r.tick(time.Millisecond) // flushes the part batches
			ctrl, data := w.out.take()
			for _, frame := range data {
				if frame[frameHeadLen] != msgFlows && frame[frameHeadLen] != msgFlowsZ {
					continue
				}
				want := oracleDecode(t, frame[frameHeadLen:])
				if !slices.Equal(want.flows, routed[want.shard][want.base:want.base+uint64(len(want.flows))]) {
					t.Fatalf("compress=%v: shard %d frame at %d carries other flows than were routed", compress, want.shard, want.base)
				}
				if o := oracleFrame(want, compress); !bytes.Equal(frame, o) {
					t.Fatalf("compress=%v: shard %d frame at %d differs from the oracle's (%d vs %d bytes)",
						compress, want.shard, want.base, len(frame), len(o))
				}
				got, err := sc.decode(frame[frameHeadLen:])
				if err != nil {
					t.Fatal(err)
				}
				if got.shard != want.shard || got.base != want.base || !slices.Equal(got.flows, want.flows) {
					t.Fatalf("compress=%v: shard %d frame at %d decodes other flows than the oracle's", compress, want.shard, want.base)
				}
			}
			w.out.ctrlQ, w.out.dataQ = ctrl, data
			r.deliver(w)
			r.report(w, uint32(round%len(routed)), 0) // compacts that shard's replay
			tails := make([][]ipfix.Flow, len(routed))
			for i := range r.b.shards {
				s := &r.b.shards[i]
				tails[i] = routed[i][s.ackBase:s.cursor]
				if !bytes.Equal(s.replay, oracleRecords(tails[i])) {
					t.Fatalf("compress=%v round %d: shard %d replay is not its tail's records", compress, round, i)
				}
			}
			lg := encodeLedger(r.b)
			if !bytes.Equal(lg, oracleLedger(r.b, tails)) {
				t.Fatalf("compress=%v round %d: ledger differs from the per-flow encoder's", compress, round)
			}
			back, err := decodeLedger(lg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeLedger(back), lg) {
				t.Fatalf("compress=%v round %d: ledger does not survive its decoder", compress, round)
			}
		}
		if r.b.shards[0].ackBase == 0 || r.b.replayLen() == 0 {
			t.Fatalf("compress=%v: the run compacted nothing or left no tail", compress)
		}
	}
}

// TestFlowDecodeAllocatesNothing pins the worker's side of the flow plane:
// once a read loop's scratch has grown to a 512-flow frame, decoding the
// next such frame allocates nothing. (A deflated frame's inflate allocates
// inside compress/flate, whose decoder builds its Huffman tables per block.)
func TestFlowDecodeAllocatesNothing(t *testing.T) {
	flows := testFlows(512)
	body := oracleFrame(flowsMsg{shard: 1, base: 9, flows: flows}, false)[frameHeadLen:]
	var sc flowScratch
	decode := func() {
		if m, err := sc.decode(body); err != nil || len(m.flows) != len(flows) {
			t.Fatalf("%d flows, %v", len(m.flows), err)
		}
	}
	decode() // grow the scratch
	if allocs := testing.AllocsPerRun(50, decode); allocs != 0 {
		t.Errorf("%.1f allocations per 512-flow decode, want 0", allocs)
	}
}
