package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
)

// updateGolden rewrites testdata/*.ckpt with the oracle encoder — the
// per-primitive codec the goldens were first recorded with — never with the
// production encoder under test.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.ckpt using the oracle encoder")

// splitmix is a self-contained seeded generator, so the golden aggregates do
// not depend on math/rand's stream staying the same across Go releases.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// shapedAggregate feeds shapedTrace's flows and verdicts through
// Aggregator.Add.
func shapedAggregate(attack bool, n int, seed uint64) *Aggregator {
	a := NewAggregator(cpStart, time.Hour)
	flows, verdicts := shapedTrace(attack, n, seed)
	for i, f := range flows {
		a.Add(f, verdicts[i])
	}
	return a
}

// shapedTrace synthesises n flows with synthesised verdicts (no pipeline).
// attack=false is the typical mix: mostly
// Valid, a few hundred members, warm counters. attack=true is the shape of
// benchmark/gen.AttackTrace: three flows in four spoofed, random sources at a
// few victims (large fan-in source sets), NTP trigger/response pairs, many
// invalid origins. Both touch every section of the checkpoint, including
// zero-packet flows (key presence without a count), jumbo sizes (the size
// histogram's spill map), unknown members and portless protocols.
func shapedTrace(attack bool, n int, seed uint64) ([]ipfix.Flow, []Verdict) {
	rng := splitmix(seed)
	flows, verdicts := make([]ipfix.Flow, 0, n), make([]Verdict, 0, n)
	invalid := func() Verdict {
		v := Verdict{Class: ClassInvalid, KnownMember: true,
			SrcOrigin: bgp.ASN(64500 + rng.intn(300)), RouterIP: rng.intn(20) == 0}
		switch rng.intn(4) {
		case 0:
			v.Invalid = [numApproaches]bool{true, false, false}
		case 1:
			v.Invalid = [numApproaches]bool{true, true, false}
		default:
			v.Invalid = [numApproaches]bool{true, true, true}
		}
		return v
	}
	victims := make([]netx.Addr, 16)
	for i := range victims {
		victims[i] = netx.Addr(rng.next())
	}
	amplifiers := make([]netx.Addr, 256)
	for i := range amplifiers {
		amplifiers[i] = netx.Addr(rng.next())
	}
	for i := 0; i < n; i++ {
		f := ipfix.Flow{
			Start:   cpStart.Add(time.Duration(rng.intn(7*24*3600)) * time.Second),
			SrcAddr: netx.Addr(rng.next()), DstAddr: netx.Addr(rng.next()),
			SrcPort: uint16(1024 + rng.intn(64512)), DstPort: []uint16{80, 443, 53, 25, 8080}[rng.intn(5)],
			Protocol: ipfix.ProtoTCP,
			Packets:  uint64(1 + rng.intn(20)),
			Ingress:  uint32(1 + rng.intn(220)),
		}
		f.Bytes = f.Packets * uint64(40+rng.intn(1460))
		switch rng.intn(200) {
		case 0:
			f.Packets, f.Bytes = 0, 0
		case 1:
			f.Bytes = f.Packets * 9000
		}
		switch u := rng.intn(20); {
		case u < 7:
			f.Protocol = ipfix.ProtoUDP
		case u == 19:
			f.Protocol, f.SrcPort, f.DstPort = ipfix.ProtoICMP, 0, 0
		}
		v := Verdict{Class: ClassValid, KnownMember: rng.intn(100) != 0, SrcOrigin: 64500}
		u := rng.intn(100)
		if !attack {
			switch {
			case u < 2:
				v.Class = ClassBogon
			case u < 4:
				v.Class = ClassUnrouted
			case u < 8:
				v = invalid()
			case u < 10: // NTP response from an amplifier
				f.Protocol, f.SrcPort, f.SrcAddr = ipfix.ProtoUDP, 123, amplifiers[rng.intn(len(amplifiers))]
				f.DstAddr = victims[rng.intn(len(victims))]
			}
		} else {
			switch {
			case u < 42: // random-source SYN flood at a few victims
				f.DstAddr, f.Protocol, f.Packets, f.Bytes = victims[rng.intn(len(victims))], ipfix.ProtoTCP, 1, 40
				v.Class = []Class{ClassBogon, ClassUnrouted, ClassInvalid}[rng.intn(3)]
				if v.Class == ClassInvalid {
					v = invalid()
				}
			case u < 58: // scatter
				f.Protocol = ipfix.ProtoUDP
				f.DstPort = uint16(1024 + rng.intn(64512))
				v.Class = ClassUnrouted
			case u < 72: // NTP trigger: the spoofed source is the victim
				f.SrcAddr, f.DstAddr = victims[rng.intn(len(victims))], amplifiers[rng.intn(len(amplifiers))]
				f.Protocol, f.DstPort = ipfix.ProtoUDP, 123
				v = invalid()
				v.Invalid = [numApproaches]bool{true, true, true}
			case u < 80: // NTP response
				f.SrcAddr, f.DstAddr = amplifiers[rng.intn(len(amplifiers))], victims[rng.intn(len(victims))]
				f.Protocol, f.SrcPort = ipfix.ProtoUDP, 123
			}
		}
		flows, verdicts = append(flows, f), append(verdicts, v)
	}
	return flows, verdicts
}

var goldenShapes = []struct {
	name   string
	attack bool
}{{"mixed", false}, {"attack", true}}

// goldenCheckpoint is the checkpoint committed as testdata/<shape>.ckpt.
func goldenCheckpoint(attack bool) *Checkpoint {
	return &Checkpoint{
		Ingested: 3100, Queued: 3000, Shed: 100, Processed: 3000,
		Epoch: 3, Swaps: 4, StaleVerdicts: 17, Degraded: attack,
		Agg: shapedAggregate(attack, 3000, 20170101),
	}
}

// TestGoldenCheckpointBytes pins the format: the files under testdata were
// written by the encoder of the commit before the bulk codec, and the
// production encoder must reproduce them byte for byte from the same state,
// the production decoder must read them, and what it reads must re-encode to
// them. A change that needs -update-golden has changed the format and must
// bump checkpointVersion.
func TestGoldenCheckpointBytes(t *testing.T) {
	for _, shape := range goldenShapes {
		t.Run(shape.name, func(t *testing.T) {
			path := filepath.Join("testdata", shape.name+".ckpt")
			cp := goldenCheckpoint(shape.attack)
			if *updateGolden {
				var buf bytes.Buffer
				if err := oracleEncodeCheckpoint(&buf, cp); err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := encodeAgg(t, cp); !bytes.Equal(got, want) {
				t.Fatalf("encoder no longer reproduces %s: %d bytes, golden %d, first difference at %d",
					path, len(got), len(want), firstDiff(got, want))
			}
			if got := AppendCheckpoint(nil, cp); !bytes.Equal(got, want) {
				t.Fatalf("AppendCheckpoint disagrees with %s at byte %d", path, firstDiff(got, want))
			}
			dec, err := DecodeCheckpointBytes(want)
			if err != nil {
				t.Fatalf("decoder rejects %s: %v", path, err)
			}
			if got := encodeAgg(t, dec); !bytes.Equal(got, want) {
				t.Fatalf("decode then encode of %s differs at byte %d", path, firstDiff(got, want))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
