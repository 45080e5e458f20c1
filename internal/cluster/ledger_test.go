package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spoofscope/internal/bgp"
)

func testLedger() *book {
	recs := records(testFlows(7))
	return &book{
		startNanos: tcStart.UnixNano(),
		bucket:     int64(time.Hour),
		epochSeq:   5,
		haveFP:     true,
		lastFP: bgp.Fingerprint{
			Paths: bgp.Digest{Sum: 11, Xor: 22, Count: 33},
			Anns:  bgp.Digest{Sum: 44, Xor: 55, Count: 66},
		},
		epochFull:   []byte("full-epoch-frame"),
		flowsRouted: 100 + 40,
		shards: []shard{
			{id: 0, cursor: 100, sentCursor: 95, ackBase: 95, lastOwner: "node-1", lastReport: []byte("cp-1"), replay: recs[:5*flowWireLen]},
			{id: 1, cursor: 40, sentCursor: 38, ackBase: 38, lastOwner: "", lastReport: nil, replay: recs[5*flowWireLen:]},
		},
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	lg := testLedger()
	got, err := decodeLedger(encodeLedger(lg))
	if err != nil {
		t.Fatal(err)
	}
	if got.startNanos != lg.startNanos || got.bucket != lg.bucket ||
		got.epochSeq != lg.epochSeq || got.haveFP != lg.haveFP ||
		got.lastFP != lg.lastFP || got.flowsRouted != lg.flowsRouted {
		t.Fatalf("ledger header round trip mismatch: %+v", got)
	}
	if !bytes.Equal(got.epochFull, lg.epochFull) {
		t.Fatal("epoch frame did not survive the codec")
	}
	if len(got.shards) != len(lg.shards) {
		t.Fatalf("shard count %d, want %d", len(got.shards), len(lg.shards))
	}
	for i := range lg.shards {
		w, g := &lg.shards[i], &got.shards[i]
		if g.cursor != w.cursor || g.ackBase != w.ackBase || g.lastOwner != w.lastOwner ||
			!bytes.Equal(g.lastReport, w.lastReport) || !bytes.Equal(g.replay, w.replay) {
			t.Fatalf("shard %d round trip mismatch: %+v", i, g)
		}
	}
}

func TestLedgerRejectsDamage(t *testing.T) {
	body := encodeLedger(testLedger())

	if _, err := decodeLedger([]byte("NOTALEDGER")); err == nil {
		t.Fatal("foreign bytes decoded as a ledger")
	}

	versioned := append([]byte(nil), body...)
	versioned[len(ledgerMagic)-1] = 99
	if _, err := decodeLedger(versioned); err == nil {
		t.Fatal("unknown version accepted")
	}

	for _, cut := range []int{len(ledgerMagic) + 3, len(body) / 2, len(body) - 1} {
		if _, err := decodeLedger(body[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}

	if _, err := decodeLedger(append(append([]byte(nil), body...), 0xEE)); err == nil {
		t.Fatal("trailing garbage accepted")
	}

	// Tampered feed position: the sum-of-cursors consistency check must
	// catch a flowsRouted that disagrees with the shards.
	lg := testLedger()
	lg.flowsRouted++
	if _, err := decodeLedger(encodeLedger(lg)); err == nil {
		t.Fatal("inconsistent flowsRouted accepted")
	}

	// Replay span must cover exactly [ackBase, cursor).
	lg = testLedger()
	lg.shards[0].ackBase--
	if _, err := decodeLedger(encodeLedger(lg)); err == nil {
		t.Fatal("replay shorter than the cursor span accepted")
	}
}

// TestLedgerRefusesTruncatedReplay cuts the golden ledger inside a shard's
// replay records — mid-record and on a record boundary — and the decoder
// refuses both: the shard's flow count is checked against the bytes left
// before any record is read.
func TestLedgerRefusesTruncatedReplay(t *testing.T) {
	body, err := os.ReadFile(goldenLedger)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := decodeLedger(body)
	if err != nil {
		t.Fatal(err)
	}
	tail := lg.shards[1].replay
	at := bytes.Index(body, tail)
	if len(tail) == 0 || at < 0 {
		t.Fatal("golden ledger's shard 1 has no replay records")
	}
	for _, cut := range []int{at + flowWireLen + 3, at + 2*flowWireLen, at + len(tail) - 1} {
		if _, err := decodeLedger(body[:cut]); err == nil {
			t.Fatalf("ledger cut %d bytes into shard 1's replay accepted", cut-at)
		}
	}
}

func TestLedgerFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shards.ledger")
	lg := testLedger()
	if err := writeLedgerFile(path, encodeLedger(lg)); err != nil {
		t.Fatal(err)
	}
	got, err := loadLedgerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.flowsRouted != lg.flowsRouted || got.epochSeq != lg.epochSeq {
		t.Fatalf("ledger file round trip mismatch: %+v", got)
	}

	// Overwrite must be atomic-by-rename: the new content fully replaces
	// the old.
	lg.epochSeq = 9
	lg.shards[1].lastOwner = "node-2"
	if err := writeLedgerFile(path, encodeLedger(lg)); err != nil {
		t.Fatal(err)
	}
	got, err = loadLedgerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.epochSeq != 9 || got.shards[1].lastOwner != "node-2" {
		t.Fatalf("overwrite not visible: %+v", got)
	}
}

func TestLedgerValidate(t *testing.T) {
	lg := testLedger()
	good := &Config{Shards: 2, Start: tcStart, Bucket: time.Hour}
	if err := lg.validate(good); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}
	if err := lg.validate(&Config{Shards: 3, Start: tcStart, Bucket: time.Hour}); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	if err := lg.validate(&Config{Shards: 2, Start: tcStart.Add(time.Minute), Bucket: time.Hour}); err == nil {
		t.Fatal("start-time mismatch accepted")
	}
	if err := lg.validate(&Config{Shards: 2, Start: tcStart, Bucket: time.Minute}); err == nil {
		t.Fatal("bucket mismatch accepted")
	}
}

// goldenLedger is a version-1 ledger as the encoder before the shard book
// wrote it: three shards — one with a durable report and a replay tail, one
// never reported, one empty — behind a full epoch.
const goldenLedger = "testdata/v1.ledger"

// TestLedgerGoldenBytes: ledgers persisted by running deployments must still
// resume. The book decodes the pinned file and re-encodes it byte for byte,
// and a coordinator configured like the run that wrote it accepts it.
func TestLedgerGoldenBytes(t *testing.T) {
	body, err := os.ReadFile(goldenLedger)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := decodeLedger(body)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeLedger(lg); !bytes.Equal(got, body) {
		t.Fatalf("re-encoded ledger differs from %s (%d vs %d bytes)", goldenLedger, len(got), len(body))
	}
	if lg.epochSeq != 3 || lg.flowsRouted != 47 || lg.shards[0].lastOwner != "node-1" || lg.shards[1].replayFlows() != 7 {
		t.Fatalf("golden ledger decoded to epoch %d, %d flows routed, shards %+v", lg.epochSeq, lg.flowsRouted, lg.shards)
	}
	if _, err := newBook(&Config{Shards: 3, Start: tcStart, Bucket: time.Hour}, lg); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeLedger feeds arbitrary bytes to the ledger decoder, which a
// restarting coordinator and a standby run on whatever the disk holds. No
// input may panic it, and whatever it accepts re-encodes byte for byte: the
// format has one encoding per state, so a ledger the encoder cannot have
// written — a fingerprint flag other than 0 or 1 among them, seeded here —
// is refused.
func FuzzDecodeLedger(f *testing.F) {
	golden, err := os.ReadFile(goldenLedger)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(encodeLedger(testLedger()))
	flag2 := bytes.Clone(golden)
	flag2[len(ledgerMagic)+3*8] = 2 // haveFP, after the time base and epoch sequence
	f.Add(flag2)
	f.Fuzz(func(t *testing.T, body []byte) {
		lg, err := decodeLedger(body)
		if err != nil {
			return
		}
		if enc := encodeLedger(lg); !bytes.Equal(enc, body) {
			t.Fatalf("%d-byte ledger decoded to state that encodes to %d other bytes", len(body), len(enc))
		}
	})
}
