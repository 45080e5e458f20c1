package ipfix

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"spoofscope/internal/netx"
)

var t0 = time.Unix(1486252800, 0).UTC()

func sampleFlow(i int) Flow {
	return Flow{
		Start:    t0.Add(time.Duration(i) * time.Second),
		SrcAddr:  netx.MustParseAddr("203.0.113.7"),
		DstAddr:  netx.MustParseAddr("198.51.100.9"),
		SrcPort:  uint16(40000 + i),
		DstPort:  80,
		Protocol: ProtoTCP,
		TCPFlags: 0x02, // SYN
		Packets:  uint64(1 + i),
		Bytes:    uint64(60 * (1 + i)),
		Ingress:  12,
		Egress:   30,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	enc := NewEncoder(7)
	flows := make([]Flow, 10)
	for i := range flows {
		flows[i] = sampleFlow(i)
	}
	msgs := enc.Encode(t0, flows)
	if len(msgs) < 2 {
		t.Fatalf("expected template + data messages, got %d", len(msgs))
	}
	dec := NewDecoder()
	var got []Flow
	for _, m := range msgs {
		var err error
		got, err = dec.Decode(m, got)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(flows, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", flows[0], got[0])
	}
	if dec.RecordsDecoded != len(flows) {
		t.Fatalf("RecordsDecoded = %d", dec.RecordsDecoded)
	}
}

func TestEncodeSplitsLargeBatches(t *testing.T) {
	enc := NewEncoder(1)
	enc.MaxRecordsPerMessage = 3
	flows := make([]Flow, 10)
	for i := range flows {
		flows[i] = sampleFlow(i)
	}
	msgs := enc.Encode(t0, flows)
	// 1 template + ceil(10/3) = 4 data messages.
	if len(msgs) != 5 {
		t.Fatalf("messages = %d", len(msgs))
	}
	for _, m := range msgs {
		if len(m) != int(binary.BigEndian.Uint16(m[2:])) {
			t.Fatal("message length field wrong")
		}
	}
}

func TestSequenceNumbersCountDataRecords(t *testing.T) {
	enc := NewEncoder(1)
	enc.Encode(t0, []Flow{sampleFlow(0), sampleFlow(1)})
	msgs := enc.Encode(t0, []Flow{sampleFlow(2)})
	// Sequence of the follow-up message must be 2 (records sent so far).
	seq := binary.BigEndian.Uint32(msgs[0][8:])
	if seq != 2 {
		t.Fatalf("sequence = %d, want 2", seq)
	}
}

func TestDecodeWithoutTemplateSkips(t *testing.T) {
	enc := NewEncoder(1)
	msgs := enc.Encode(t0, []Flow{sampleFlow(0)})
	dec := NewDecoder()
	// Feed only the data message (index 1), not the template.
	got, err := dec.Decode(msgs[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || dec.RecordsSkipped != 1 {
		t.Fatalf("flows=%d skipped=%d", len(got), dec.RecordsSkipped)
	}
}

func TestDecodePerDomainTemplates(t *testing.T) {
	encA, encB := NewEncoder(1), NewEncoder(2)
	msgsA := encA.Encode(t0, []Flow{sampleFlow(0)})
	msgsB := encB.Encode(t0, []Flow{sampleFlow(1)})
	dec := NewDecoder()
	var got []Flow
	var err error
	// Template from domain 1 must not satisfy data from domain 2.
	got, err = dec.Decode(msgsA[0], got) // template A
	if err != nil {
		t.Fatal(err)
	}
	got, err = dec.Decode(msgsB[1], got) // data B without template B
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("cross-domain template leak")
	}
	got, err = dec.Decode(msgsB[0], got)
	if err != nil {
		t.Fatal(err)
	}
	got, err = dec.Decode(msgsB[1], got)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("flows = %d", len(got))
	}
}

func TestDecodeForeignTemplateSubset(t *testing.T) {
	// A hand-built template with a different field order and an unknown IE:
	// the decoder must still extract what it knows.
	var msg []byte
	// Header placeholder.
	msg = append(msg, make([]byte, msgHeaderLen)...)
	// Template set: ID 300, 3 fields: srcIP(4), unknown IE 999 (2 bytes),
	// dstPort(2).
	tmpl := []byte{
		0, 2, 0, 20, // set 2, length 20
		1, 44, 0, 3, // template 300, field count 3
		0, 8, 0, 4, // sourceIPv4Address
		3, 231, 0, 2, // IE 999, len 2
		0, 11, 0, 2, // destinationTransportPort
	}
	msg = append(msg, tmpl...)
	// Data set: one record.
	data := []byte{
		1, 44, 0, 12, // set 300, length 4+8
		203, 0, 113, 9, // srcIP
		0xde, 0xad, // unknown
		0, 53, // dst port 53
	}
	msg = append(msg, data...)
	binary.BigEndian.PutUint16(msg[0:], version)
	binary.BigEndian.PutUint16(msg[2:], uint16(len(msg)))
	binary.BigEndian.PutUint32(msg[12:], 9)

	dec := NewDecoder()
	got, err := dec.Decode(msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("flows = %d", len(got))
	}
	if got[0].SrcAddr != netx.MustParseAddr("203.0.113.9") || got[0].DstPort != 53 {
		t.Fatalf("decoded %+v", got[0])
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	enc := NewEncoder(1)
	msgs := enc.Encode(t0, []Flow{sampleFlow(0)})
	good := msgs[1]
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"short", func(b []byte) []byte { return b[:8] }},
		{"bad version", func(b []byte) []byte { b[0] = 0; b[1] = 9; return b }},
		{"length mismatch", func(b []byte) []byte { b[3]++; return b }},
		{"bad set length", func(b []byte) []byte {
			binary.BigEndian.PutUint16(b[msgHeaderLen+2:], 2)
			return b
		}},
	} {
		bb := append([]byte(nil), good...)
		if _, err := NewDecoder().Decode(tc.mut(bb), nil); err == nil {
			t.Errorf("%s: corrupt message accepted", tc.name)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFileWriter(&buf, 42)
	rng := rand.New(rand.NewSource(8))
	var want []Flow
	for batch := 0; batch < 5; batch++ {
		flows := make([]Flow, rng.Intn(40)+1)
		for i := range flows {
			flows[i] = Flow{
				Start:    t0.Add(time.Duration(rng.Intn(86400)) * time.Second),
				SrcAddr:  netx.Addr(rng.Uint32()),
				DstAddr:  netx.Addr(rng.Uint32()),
				SrcPort:  uint16(rng.Intn(65536)),
				DstPort:  uint16(rng.Intn(65536)),
				Protocol: uint8(rng.Intn(256)),
				TCPFlags: uint8(rng.Intn(256)),
				Packets:  rng.Uint64() % 1e6,
				Bytes:    rng.Uint64() % 1e9,
				Ingress:  rng.Uint32() % 1000,
				Egress:   rng.Uint32() % 1000,
			}
		}
		want = append(want, flows...)
		if err := fw.Write(t0, flows); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}

	fr := NewFileReader(bytes.NewReader(buf.Bytes()))
	var got []Flow
	if err := fr.ForEachBatch(func(b []Flow) bool { got = append(got, b...); return true }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("file round trip mismatch: %d vs %d flows", len(want), len(got))
	}
}

func TestFileReaderEarlyStop(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFileWriter(&buf, 1)
	for i := 0; i < 3; i++ {
		fw.Write(t0, []Flow{sampleFlow(i)}) // one message each
	}
	fw.Flush()
	n := 0
	fr := NewFileReader(bytes.NewReader(buf.Bytes()))
	if err := fr.ForEachBatch(func([]Flow) bool { n++; return n < 2 }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("visited %d messages", n)
	}
}

func TestUDPExportCollect(t *testing.T) {
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
	malformed, err := col.ServeBatch(time.Now().Add(500*time.Millisecond), func(b []Flow) bool {
		got = append(got, b...)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if malformed != 0 {
		t.Fatalf("malformed = %d", malformed)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("UDP round trip mismatch: got %d flows", len(got))
	}
}
