package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// wireSeed is one wire-ready frame and the message it encodes.
type wireSeed struct {
	frame []byte
	want  any
}

// wireSeeds returns one frame of every kind a socket carries into a decoder,
// each paired with the message it was encoded from. TestWireRoundTrip checks
// them and FuzzDecodeFrame starts from them.
func wireSeeds() []wireSeed {
	flows := testFlows(5)
	nonce := bytes.Repeat([]byte{0xAB}, challengeNonceLen)
	hello := helloMsg{identity: "node-1", name: "w1"}
	hello.mac = helloMAC([]byte("s3cret"), nonce, hello.identity, hello.name)
	full := epochMsg{seq: 9, trace: 0xDEAD, shipNanos: 12345, full: true, members: testMembers, anns: testRIB().Announcements()}
	assign := assignMsg{shard: 3, trace: 0xF00D, cursor: 77, startNanos: tcStart.UnixNano(), bucket: int64(time.Hour), checkpoint: []byte("cpbytes")}
	revoke := shardCtrlMsg{shard: 5, trace: 0x5EED}
	reportReq := shardCtrlMsg{shard: 6, trace: 0xABCD, nanos: 4242}
	plain := flowsMsg{shard: 2, base: 41, flows: flows}
	deflated := flowsMsg{shard: 4, base: 17, flows: flows}
	report := reportMsg{shard: 1, final: true, trace: 0x1234, reqNanos: 999, cursor: 123, checkpoint: []byte("x")}
	return []wireSeed{
		{encodeEpoch(full), full}, // first: TestWireRoundTrip re-stamps it
		{encodeEpoch(epochMsg{seq: 10}), epochMsg{seq: 10}},
		{encodeChallenge(nonce), nonce},
		{encodeHello(hello), hello},
		{encodeAssign(assign), assign},
		{encodeShardCtrl(msgRevoke, revoke), revoke},
		{encodeShardCtrl(msgReportReq, reportReq), reportReq},
		{oracleFrame(plain, false), plain},
		{oracleFrame(deflated, true), deflated},
		{encodeReport(report), report},
	}
}

// miscountedFlowFrames returns plain flow frame bodies whose record count
// disagrees with their length, each way: by one byte (the last record cut
// short, or a byte past it) and by one whole record (a count one past, or
// one short of, the records carried). The decoder must refuse every one
// rather than decode the records that fit.
func miscountedFlowFrames() [][]byte {
	flows := testFlows(3)
	body := func() []byte { return oracleFrame(flowsMsg{shard: 2, base: 41, flows: flows}, false)[frameHeadLen:] }
	recount := func(n int) []byte {
		b := body()
		binary.BigEndian.PutUint32(b[1+4+8:], uint32(n))
		return b
	}
	short := body()
	return [][]byte{short[:len(short)-1], append(body(), 0), recount(len(flows) + 1), recount(len(flows) - 1)}
}

// decodeFrame runs a non-empty frame body through the decoder its type byte
// selects — every decoder either end of a link runs on bytes from its socket.
func decodeFrame(body []byte) (any, error) {
	switch body[0] {
	case msgChallenge:
		return decodeChallenge(body)
	case msgHello:
		return decodeHello(body)
	case msgEpoch:
		return decodeEpoch(body)
	case msgAssign:
		return decodeAssign(body)
	case msgRevoke, msgReportReq:
		return decodeShardCtrl(body)
	case msgFlows, msgFlowsZ:
		var sc flowScratch
		return sc.decode(body)
	case msgReport:
		return decodeReport(body)
	}
	return nil, fmt.Errorf("cluster: unexpected message type %d", body[0])
}

// FuzzDecodeFrame feeds arbitrary frame bodies to the cluster decoders. The
// challenge and hello are parsed before the peer has authenticated, and the
// deflate path's raw-length check is its only bound on inflation, so no body
// may panic them; each seed must decode back to the message it came from,
// and each miscounted flow frame must be refused.
func FuzzDecodeFrame(f *testing.F) {
	seeds := make(map[string]any)
	for _, s := range wireSeeds() {
		body := s.frame[frameHeadLen:]
		seeds[string(body)] = s.want
		f.Add(body)
	}
	refused := make(map[string]bool)
	for _, body := range miscountedFlowFrames() {
		refused[string(body)] = true
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) == 0 {
			return // readFrame refuses an empty frame before any decoder sees it
		}
		got, err := decodeFrame(body)
		if want, ok := seeds[string(body)]; ok && (err != nil || !reflect.DeepEqual(got, want)) {
			t.Fatalf("seed of type %d decoded to %+v, %v; want %+v", body[0], got, err, want)
		}
		if refused[string(body)] && err == nil {
			t.Fatalf("miscounted flow frame decoded to %+v", got)
		}
	})
}
