package ipfix

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"spoofscope/internal/faultnet"
)

// badFramedMessage returns a message whose length field frames it correctly
// but whose body cannot decode (wrong version) — the "malformed but framed"
// case a resilient stream collector must skip, not die on.
func badFramedMessage() []byte {
	b := make([]byte, msgHeaderLen+4)
	binary.BigEndian.PutUint16(b[0:], 9999)
	binary.BigEndian.PutUint16(b[2:], uint16(len(b)))
	return b
}

func TestServeStreamSkipsMalformedFramedMessages(t *testing.T) {
	enc := NewEncoder(3)
	want := []Flow{sampleFlow(0), sampleFlow(1), sampleFlow(2)}
	var stream bytes.Buffer
	for _, msg := range enc.Encode(t0, want[:2]) {
		stream.Write(msg)
	}
	stream.Write(badFramedMessage())
	for _, msg := range enc.Encode(t0, want[2:]) {
		stream.Write(msg)
	}

	var got []Flow
	n, malformed, err := serveStream(&stream, NewDecoder(), 0, func(b []Flow) bool {
		got = append(got, b...)
		return true
	})
	if err != nil {
		t.Fatalf("serveStream: %v", err)
	}
	if malformed != 1 {
		t.Fatalf("malformed = %d", malformed)
	}
	if n != len(want) || len(got) != len(want) {
		t.Fatalf("delivered %d/%d flows across the bad message", n, len(want))
	}
}

func TestServeStreamFramingLossIsFatal(t *testing.T) {
	// Length below the header size means the stream cannot resync.
	b := make([]byte, msgHeaderLen)
	binary.BigEndian.PutUint16(b[0:], version)
	binary.BigEndian.PutUint16(b[2:], 3)
	_, _, err := serveStream(bytes.NewReader(b), NewDecoder(), 0, func([]Flow) bool { return true })
	if err == nil {
		t.Fatal("framing loss not reported")
	}
}

// TestServeManyConnectionsSurviveFaults drives the multi-connection Serve
// through a faultnet schedule: one exporter connection is reset mid-stream,
// another sends a corrupt-but-framed message; a third runs clean. The
// collector must keep every healthy byte flowing and account for the rest.
func TestServeManyConnectionsSurviveFaults(t *testing.T) {
	col, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	col.IdleTimeout = 2 * time.Second

	var mu sync.Mutex
	seen := map[uint16]bool{} // key: SrcPort, unique per flow below
	done := make(chan error, 1)
	go func() {
		done <- col.ServeBatch(func(batch []Flow) bool {
			mu.Lock()
			for _, f := range batch {
				seen[f.SrcPort] = true
			}
			mu.Unlock()
			return true
		})
	}()

	flowsFor := func(base, n int) []Flow {
		out := make([]Flow, n)
		for i := range out {
			out[i] = sampleFlow(i)
			out[i].SrcPort = uint16(base + i)
		}
		return out
	}

	// Connection 1: clean batch, orderly close.
	exp, err := DialTCP(col.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Export(t0, flowsFor(1000, 30)); err != nil {
		t.Fatal(err)
	}
	exp.Close()

	// Connection 2: a framed-but-corrupt message between two good batches.
	raw, err := net.Dial("tcp", col.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	exp2 := NewTCPExporter(raw, 2)
	if err := exp2.Export(t0, flowsFor(2000, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(badFramedMessage()); err != nil {
		t.Fatal(err)
	}
	if err := exp2.Export(t0, flowsFor(2100, 10)); err != nil {
		t.Fatal(err)
	}
	exp2.Close()

	// Connection 3: transport reset mid-stream after one good batch.
	raw3, err := net.Dial("tcp", col.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fc := faultnet.Wrap(raw3, faultnet.Config{Seed: 9, ResetAfterWrites: 2})
	exp3 := NewTCPExporter(fc, 3)
	if err := exp3.Export(t0, flowsFor(3000, 10)); err != nil {
		t.Fatal(err)
	}
	exp3.Export(t0, flowsFor(3100, 10)) // reset fires here; error expected

	expect := 30 + 20 + 10
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n >= expect || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	col.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, base := range []int{1000, 2000, 2100, 3000} {
		for i := 0; i < 10; i++ {
			if !seen[uint16(base+i)] {
				t.Fatalf("flow %d lost", base+i)
			}
		}
	}
	st := col.Stats()
	if st.Connections != 3 {
		t.Errorf("connections = %d", st.Connections)
	}
	if st.Malformed != 1 {
		t.Errorf("malformed = %d", st.Malformed)
	}
	if st.Disconnects < 1 {
		t.Errorf("disconnects = %d", st.Disconnects)
	}
	if st.Flows < expect {
		t.Errorf("flows = %d, want >= %d", st.Flows, expect)
	}
}

func TestServeStreamIdleTimeoutTearsDownConnection(t *testing.T) {
	col, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	col.IdleTimeout = 50 * time.Millisecond

	conn, err := net.Dial("tcp", col.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Connect, then go silent: the collector must not wait forever.
	start := time.Now()
	serveOne(t, col, func([]Flow) bool { return true })
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("teardown took %v", d)
	}
	if st := col.Stats(); st.Disconnects != 1 {
		t.Fatalf("disconnects = %d", st.Disconnects)
	}
}

func TestUDPCollectorCountsCorruptDatagrams(t *testing.T) {
	col, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	raw, err := net.Dial("udp", col.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Every 3rd datagram has a header byte flipped by the fault schedule.
	fc := faultnet.Wrap(raw, faultnet.Config{Seed: 11, CorruptWriteEvery: 3})
	exp := NewUDPExporter(fc, 4)
	defer exp.Close()

	sent := 0
	for i := 0; i < 12; i++ {
		if err := exp.Export(t0, []Flow{sampleFlow(i)}); err != nil {
			t.Fatal(err)
		}
		sent++
	}

	// The template rides write 1 and flow i write i+2, so the last flow's
	// write escapes the schedule: it is the sentinel that ends the serve,
	// and the deadline only bounds a failure.
	if (sent+1)%3 == 0 {
		t.Fatal("schedule must leave the last datagram, the sentinel, intact")
	}
	last := sampleFlow(sent - 1).SrcPort
	received, sawLast := 0, false
	malformed, err := col.ServeBatch(time.Now().Add(5*time.Second), func(b []Flow) bool {
		received += len(b)
		sawLast = b[len(b)-1].SrcPort == last
		return !sawLast
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawLast {
		t.Fatal("the last flow never arrived")
	}
	injected := fc.Stats().CorruptedWrites
	if injected == 0 {
		t.Fatal("fault schedule injected nothing")
	}
	if malformed != injected {
		t.Fatalf("malformed = %d, injected = %d", malformed, injected)
	}
	st := col.Stats()
	if st.Malformed != injected {
		t.Fatalf("stats.Malformed = %d", st.Malformed)
	}
	if received+injected < sent {
		t.Fatalf("received %d + malformed %d < sent %d", received, injected, sent)
	}
}

// TestUDPCollectorShutdownVsClose: Shutdown must unblock a Serve with no
// deadline and report an orderly stop (nil error), while a bare Close
// surfaces the socket error — parity with the TCP collector's contract.
func TestUDPCollectorShutdownVsClose(t *testing.T) {
	col, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := DialUDP(col.Addr().String(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if err := exp.Export(t0, []Flow{sampleFlow(0)}); err != nil {
		t.Fatal(err)
	}

	got := make(chan int, 1)
	serveDone := make(chan error, 1)
	go func() {
		n := 0
		_, err := col.ServeBatch(time.Time{}, func(b []Flow) bool { n += len(b); return true })
		got <- n
		serveDone <- err
	}()
	// Wait until the flow arrives so Serve is provably mid-loop, then stop.
	deadline := time.Now().Add(5 * time.Second)
	for col.Stats().Flows == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if err := col.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve after Shutdown = %v, want nil (orderly stop)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still blocked after Shutdown")
	}
	if n := <-got; n == 0 {
		t.Fatal("flow sent before shutdown was not delivered")
	}

	// Close (no Shutdown) must surface the socket error instead.
	col2, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone2 := make(chan error, 1)
	go func() {
		_, err := col2.ServeBatch(time.Time{}, func([]Flow) bool { return true })
		serveDone2 <- err
	}()
	col2.Close()
	select {
	case err := <-serveDone2:
		if err == nil {
			t.Fatal("Serve after bare Close = nil, want the socket error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still blocked after Close")
	}
}

// TestUDPCollectorSurvivesDatagramFaults is the UDP mirror of
// TestServeManyConnectionsSurviveFaults: the collector's socket is wrapped
// in a seeded faultnet.PacketConn that drops, duplicates, and corrupts
// datagrams on receive. Because the schedule is count-keyed and the
// exporter emits exactly one datagram per flow (after the template), the
// test mirrors the schedule in plain code and predicts the fate of every
// flow: dropped and corrupted datagrams vanish or count as malformed,
// duplicated ones deliver their flow twice, everything else arrives once.
func TestUDPCollectorSurvivesDatagramFaults(t *testing.T) {
	const (
		nFlows  = 40
		dropN   = 7
		corrupt = 5
		dupN    = 9
	)

	inner, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fc := faultnet.WrapPacket(inner, faultnet.PacketConfig{
		Seed: 17, DropEvery: dropN, DuplicateEvery: dupN, CorruptEvery: corrupt,
	})
	col := NewUDPCollector(fc)
	defer col.Close()

	exp, err := DialUDP(inner.LocalAddr().String(), 6)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	// Pin the template to datagram 1 only, so data datagrams map 1:1 to
	// flows: flow i rides datagram i+2 (1-based).
	exp.TemplateEvery = 1 << 30
	for i := 0; i < nFlows; i++ {
		if err := exp.Export(t0, []Flow{sampleFlow(i)}); err != nil {
			t.Fatal(err)
		}
	}

	// Mirror the wrapper's schedule: drop wins, then corruption, then
	// duplication (a duplicated corrupt datagram would be malformed twice).
	const total = nFlows + 1 // datagram 1 is the template
	if 1%dropN == 0 || 1%corrupt == 0 {
		t.Fatal("schedule must leave the template datagram intact")
	}
	// The last flow's datagram arrives once and intact: it is the sentinel
	// that ends the serve, and the deadline only bounds a failure.
	if total%dropN == 0 || total%corrupt == 0 || total%dupN == 0 {
		t.Fatal("schedule must leave the last datagram, the sentinel, intact")
	}
	last := sampleFlow(nFlows - 1).SrcPort
	counts := map[uint16]int{}
	malformed, err := col.ServeBatch(time.Now().Add(5*time.Second), func(batch []Flow) bool {
		for _, f := range batch {
			counts[f.SrcPort]++
		}
		return counts[last] == 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts[last] == 0 {
		t.Fatal("the last flow never arrived")
	}
	wantCounts := map[uint16]int{}
	wantMalformed := 0
	for nth := 2; nth <= total; nth++ {
		if nth%dropN == 0 {
			continue
		}
		deliveries := 1
		if nth%dupN == 0 {
			deliveries = 2
		}
		if nth%corrupt == 0 {
			wantMalformed += deliveries
			continue
		}
		wantCounts[sampleFlow(nth-2).SrcPort] += deliveries
	}

	if malformed != wantMalformed {
		t.Fatalf("malformed = %d, want %d", malformed, wantMalformed)
	}
	for port, want := range wantCounts {
		if counts[port] != want {
			t.Fatalf("flow %d delivered %d times, want %d", port, counts[port], want)
		}
	}
	for port := range counts {
		if _, ok := wantCounts[port]; !ok {
			t.Fatalf("flow %d delivered despite a dropped or corrupted datagram", port)
		}
	}

	st := fc.Stats()
	if st.Datagrams != total {
		t.Fatalf("wrapper saw %d datagrams, want %d", st.Datagrams, total)
	}
	if st.Corrupted == 0 || st.Dropped == 0 || st.Duplicated == 0 {
		t.Fatalf("schedule injected nothing: %+v", st)
	}
	if cs := col.Stats(); cs.Malformed != wantMalformed {
		t.Fatalf("stats.Malformed = %d, want %d", cs.Malformed, wantMalformed)
	}
}
