package cluster

import (
	"fmt"
	"io"
	"os"

	"spoofscope/internal/bgp"
	"spoofscope/internal/core"
)

// The shard ledger is the book's durable half: everything a restarted (or
// standby) coordinator needs to resume a run exactly where the dead one left
// off. Per shard it persists the cursor (flows routed), the ackBase (flows
// durably reported), the identity of the last owner (so a redialing worker
// reclaims its shards), the last durable worker checkpoint, and the replay
// tail [ackBase, cursor) — the replay buffer's wire records, verbatim.
// Cluster-wide it persists the time base, the epoch sequence, the RIB
// fingerprint, the latest full epoch frame (so a resumed coordinator
// re-admits workers without re-reading the RIB), and the total flows routed
// — the feed position an upstream replayer resumes from.
//
// The codec follows the checkpoint discipline: fixed-width big-endian
// scalars, a version byte behind a magic, netx.Cursor decoding with every
// count checked before its allocation, and core.WriteFileAtomic persistence
// so a crash mid-write leaves either the previous ledger or the new one,
// never a torn file. testdata/v1.ledger pins the version-1 bytes.

// ledgerMagic identifies a shard-ledger file; the trailing byte is the
// format version.
var ledgerMagic = []byte{'S', 'P', 'S', 'C', 'L', 'G', 1}

func appendDigest(b []byte, d bgp.Digest) []byte {
	b = appendU64(b, d.Sum)
	b = appendU64(b, d.Xor)
	return appendU64(b, d.Count)
}

func (r *reader) digest() bgp.Digest {
	return bgp.Digest{Sum: r.U64(), Xor: r.U64(), Count: r.U64()}
}

// encodeLedger encodes the book's durable state.
func encodeLedger(bk *book) []byte {
	n := len(ledgerMagic) + 8*8 + len(bk.epochFull)
	for i := range bk.shards {
		s := &bk.shards[i]
		n += 8 + 8 + 4 + len(s.lastOwner) + 4 + len(s.lastReport) + 4 + len(s.replay)
	}
	b := make([]byte, 0, n)
	b = append(b, ledgerMagic...)
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
		b = appendU32(b, uint32(s.replayFlows()))
		b = append(b, s.replay...)
	}
	return b
}

// decodeLedger decodes a ledger into a book holding its durable state, every
// shard orphaned at its durable position; newBook configures it.
func decodeLedger(body []byte) (*book, error) {
	r := newReader(body)
	magic, version := r.Take(len(ledgerMagic)-1), r.U8()
	if r.Err() != nil || string(magic) != string(ledgerMagic[:len(ledgerMagic)-1]) {
		return nil, fmt.Errorf("cluster: not a shard ledger")
	}
	if version != ledgerMagic[len(ledgerMagic)-1] {
		return nil, fmt.Errorf("cluster: unsupported ledger version %d", version)
	}
	bk := &book{}
	bk.startNanos = int64(r.U64())
	bk.bucket = int64(r.U64())
	bk.epochSeq = r.U64()
	bk.haveFP = r.Bool("ledger fingerprint")
	bk.lastFP.Paths = r.digest()
	bk.lastFP.Anns = r.digest()
	bk.epochFull = append([]byte(nil), r.bytes()...)
	if len(bk.epochFull) == 0 {
		bk.epochFull = nil
	}
	bk.flowsRouted = r.U64()
	ns := r.Fits("ledger shard", r.U32(), 8+8+4+4+4)
	var total uint64
	bk.shards = make([]shard, 0, ns)
	for i := 0; i < ns && r.Err() == nil; i++ {
		s := shard{id: uint32(i)}
		s.cursor = r.U64()
		s.ackBase = r.U64()
		s.sentCursor = s.ackBase
		s.lastOwner = string(r.bytes())
		s.lastReport = append([]byte(nil), r.bytes()...)
		if len(s.lastReport) == 0 {
			s.lastReport = nil
		} else if head, err := core.CheckpointHeader(s.lastReport); err == nil {
			s.reportEpoch = uint64(head.Epoch)
		}
		nf := r.Fits("ledger replay flow", r.U32(), flowWireLen)
		if r.Err() != nil {
			break
		}
		if s.ackBase > s.cursor || uint64(nf) != s.cursor-s.ackBase {
			return nil, fmt.Errorf("cluster: ledger shard %d replay %d flows, cursor span [%d,%d)",
				i, nf, s.ackBase, s.cursor)
		}
		s.replay = append([]byte(nil), r.Take(nf*flowWireLen)...)
		total += s.cursor
		bk.shards = append(bk.shards, s)
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("cluster: decoding ledger: %w", err)
	}
	if total != bk.flowsRouted {
		return nil, fmt.Errorf("cluster: ledger cursors sum to %d, flowsRouted %d", total, bk.flowsRouted)
	}
	return bk, nil
}

// writeLedgerFile atomically persists encoded ledger bytes.
func writeLedgerFile(path string, body []byte) error {
	return core.WriteFileAtomic(path, 0o666, func(w io.Writer) error {
		_, err := w.Write(body)
		return err
	})
}

// loadLedgerFile reads and decodes a ledger written by writeLedgerFile.
func loadLedgerFile(path string) (*book, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeLedger(body)
}

// validate checks a decoded ledger against the coordinator configuration it
// is about to resume: shard count and time base must match, or per-shard
// state and merged aggregates would silently mean something different.
func (b *book) validate(cfg *Config) error {
	if len(b.shards) != cfg.Shards {
		return fmt.Errorf("cluster: ledger has %d shards, config wants %d", len(b.shards), cfg.Shards)
	}
	if b.startNanos != cfg.Start.UnixNano() || b.bucket != int64(cfg.Bucket) {
		return fmt.Errorf("cluster: ledger time base %d/%d disagrees with config %d/%d",
			b.startNanos, b.bucket, cfg.Start.UnixNano(), int64(cfg.Bucket))
	}
	return nil
}
