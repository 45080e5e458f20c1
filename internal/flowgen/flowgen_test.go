package flowgen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"spoofscope/internal/bogon"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/scenario"
)

func genAll(t *testing.T) (*scenario.Scenario, []ipfix.Flow, []Label) {
	t.Helper()
	s, err := scenario.Build(scenario.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.RegularPerBucket = 150
	g := New(s, cfg)
	var flows []ipfix.Flow
	var labels []Label
	g.Generate(func(f ipfix.Flow, l Label) {
		flows = append(flows, f)
		labels = append(labels, l)
	})
	return s, flows, labels
}

func TestGenerateBasics(t *testing.T) {
	s, flows, labels := genAll(t)
	if len(flows) < 5000 {
		t.Fatalf("only %d flows generated", len(flows))
	}
	start, end := s.Window()
	counts := map[Label]int{}
	for i, f := range flows {
		if f.Start.Before(start) || !f.Start.Before(end) {
			t.Fatalf("flow %d outside window: %v", i, f.Start)
		}
		if f.Packets == 0 || f.Bytes == 0 {
			t.Fatalf("flow %d empty: %+v", i, f)
		}
		if s.MemberByPort(f.Ingress) == nil {
			t.Fatalf("flow %d has unknown ingress port %d", i, f.Ingress)
		}
		counts[labels[i]]++
	}
	// Every major label must occur.
	for _, l := range []Label{
		LabelRegular, LabelBogonLeak, LabelUnroutedLeak, LabelRandomFlood,
		LabelNTPTrigger, LabelNTPResponse, LabelInvalidSpoof, LabelStrayRouter,
	} {
		if counts[l] == 0 {
			t.Errorf("label %v never generated", l)
		}
	}
	// Regular dominates by far.
	if counts[LabelRegular] < len(flows)/2 {
		t.Errorf("regular = %d of %d", counts[LabelRegular], len(flows))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	_, a, _ := genAll(t)
	_, b, _ := genAll(t)
	if len(a) != len(b) {
		t.Fatalf("flow counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestLabelClassAgreement(t *testing.T) {
	s, flows, labels := genAll(t)
	bogons := bogon.NewReferenceSet()
	routable := s.RoutableSpace()
	for i, f := range flows {
		switch labels[i] {
		case LabelBogonLeak, LabelBogonAttack:
			if !bogons.Contains(f.SrcAddr) {
				t.Fatalf("bogon-labelled flow with non-bogon source %v", f.SrcAddr)
			}
		case LabelRegular, LabelHiddenPeer, LabelNTPResponse:
			if bogons.Contains(f.SrcAddr) {
				t.Fatalf("legit flow with bogon source %v", f.SrcAddr)
			}
		case LabelRandomFlood:
			if bogons.Contains(f.SrcAddr) {
				t.Fatalf("flood flow with bogon source %v", f.SrcAddr)
			}
		case LabelUnroutedLeak:
			if !routable.Contains(f.SrcAddr) {
				t.Fatalf("unrouted-leak source outside allocated space")
			}
		case LabelNTPTrigger:
			if f.DstPort != 123 || f.Protocol != ipfix.ProtoUDP {
				t.Fatalf("NTP trigger with wrong transport: %+v", f)
			}
		}
	}
}

func TestNTPTriggerConcentration(t *testing.T) {
	s, flows, labels := genAll(t)
	// The dominant attacker must emit ~92% of trigger flows.
	perMember := map[uint32]int{}
	total := 0
	for i, f := range flows {
		if labels[i] == LabelNTPTrigger {
			perMember[f.Ingress]++
			total++
		}
	}
	if total < 100 {
		t.Fatalf("only %d NTP triggers", total)
	}
	max := 0
	for _, c := range perMember {
		if c > max {
			max = c
		}
	}
	if frac := float64(max) / float64(total); frac < 0.80 || frac > 0.98 {
		t.Errorf("dominant trigger share = %.3f, want ~0.92", frac)
	}
	_ = s
}

func TestRandomFloodSourceUniformity(t *testing.T) {
	_, flows, labels := genAll(t)
	// Per flood destination, almost every packet must carry a distinct
	// source (Figure 11a's rightmost bin).
	perDst := map[uint32]map[uint32]int{} // dst -> src -> count
	pkts := map[uint32]int{}
	for i, f := range flows {
		if labels[i] != LabelRandomFlood {
			continue
		}
		d := uint32(f.DstAddr)
		if perDst[d] == nil {
			perDst[d] = map[uint32]int{}
		}
		perDst[d][uint32(f.SrcAddr)]++
		pkts[d]++
	}
	checked := 0
	for d, srcs := range perDst {
		if pkts[d] < 50 {
			continue
		}
		checked++
		ratio := float64(len(srcs)) / float64(pkts[d])
		if ratio < 0.9 {
			t.Errorf("flood dst %d: src/pkt ratio %.3f, want ~1", d, ratio)
		}
	}
	if checked == 0 {
		t.Fatal("no flood destination with >50 packets")
	}
}

func TestSpoofedTrafficIsSmallPackets(t *testing.T) {
	_, flows, labels := genAll(t)
	smallSpoofed, spoofed := 0, 0
	for i, f := range flows {
		if labels[i].Spoofed() {
			spoofed++
			if f.Bytes <= 90 {
				smallSpoofed++
			}
		}
	}
	if spoofed == 0 {
		t.Fatal("no spoofed flows")
	}
	if frac := float64(smallSpoofed) / float64(spoofed); frac < 0.8 {
		t.Errorf("small-packet share of spoofed = %.2f, want > 0.8 (Figure 8a)", frac)
	}
}

func TestNTPResponsesAmplify(t *testing.T) {
	_, flows, labels := genAll(t)
	var trigBytes, trigPkts, respBytes, respPkts float64
	for i, f := range flows {
		switch labels[i] {
		case LabelNTPTrigger:
			trigBytes += float64(f.Bytes)
			trigPkts += float64(f.Packets)
		case LabelNTPResponse:
			respBytes += float64(f.Bytes)
			respPkts += float64(f.Packets)
		}
	}
	if trigPkts == 0 || respPkts == 0 {
		t.Fatal("missing trigger or response traffic")
	}
	// Packets similar (responses exist for ~half the pairs), bytes an
	// order of magnitude larger per packet (Figure 11c).
	byteRatio := (respBytes / respPkts) / (trigBytes / trigPkts)
	if byteRatio < 6 || byteRatio > 16 {
		t.Errorf("per-packet amplification = %.1f, want ~10", byteRatio)
	}
}

func TestRegularDiurnalPattern(t *testing.T) {
	s, flows, labels := genAll(t)
	// Hourly regular volume must show a visible day/night swing.
	start, _ := s.Window()
	hourly := make([]float64, 24)
	for i, f := range flows {
		if labels[i] != LabelRegular {
			continue
		}
		h := int(f.Start.Sub(start).Hours()) % 24
		hourly[h]++
	}
	min, max := math.Inf(1), 0.0
	for _, v := range hourly {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min == 0 || max/min < 1.3 {
		t.Errorf("diurnal swing max/min = %.2f, want > 1.3", max/min)
	}
}

func TestStrayRouterMix(t *testing.T) {
	_, flows, labels := genAll(t)
	var icmp, udp, tcp int
	for i, f := range flows {
		if labels[i] != LabelStrayRouter {
			continue
		}
		switch f.Protocol {
		case ipfix.ProtoICMP:
			icmp++
		case ipfix.ProtoUDP:
			udp++
		case ipfix.ProtoTCP:
			tcp++
		}
	}
	total := icmp + udp + tcp
	if total < 100 {
		t.Skip("too few stray flows for a stable mix")
	}
	if f := float64(icmp) / float64(total); f < 0.70 || f > 0.95 {
		t.Errorf("stray ICMP share = %.2f, want ~0.83", f)
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, lambda := range []float64{0.2, 3, 50} {
		sum := 0
		n := 20000
		for i := 0; i < n; i++ {
			sum += poisson(rng, lambda)
		}
		mean := float64(sum) / float64(n)
		if math.Abs(mean-lambda) > lambda*0.1+0.05 {
			t.Errorf("poisson(%v) mean = %v", lambda, mean)
		}
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Error("poisson must be 0 for non-positive lambda")
	}
}

func TestDiurnalBounds(t *testing.T) {
	for h := 0; h < 24; h++ {
		v := diurnal(time.Date(2017, 2, 6, h, 0, 0, 0, time.UTC))
		if v < 0.44 || v > 1.01 {
			t.Fatalf("diurnal(%d) = %v out of bounds", h, v)
		}
	}
}

// TestGenerateGolden pins the generated trace itself: the repository
// benchmark builds every workload's input through this generator at run
// time, so a refactor that changes one emitted flow silently changes what
// every committed measurement was taken on. The constant is FNV-1a over each
// flow's fields (big-endian, declaration order, Start as Unix nanoseconds)
// followed by its label, for scenario.SmallConfig under DefaultConfig. It
// was recorded at f054a21, when the generator's amplifier-origin index was
// still a frozen trie; a deliberate change to the trace re-records it.
func TestGenerateGolden(t *testing.T) {
	const wantFlows, wantHash = 52099, uint64(0x8db32cfe78a16d48)
	s, err := scenario.Build(scenario.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	n := 0
	var rec [50]byte
	New(s, DefaultConfig()).Generate(func(f ipfix.Flow, l Label) {
		binary.BigEndian.PutUint64(rec[0:], uint64(f.Start.UnixNano()))
		binary.BigEndian.PutUint32(rec[8:], uint32(f.SrcAddr))
		binary.BigEndian.PutUint32(rec[12:], uint32(f.DstAddr))
		binary.BigEndian.PutUint16(rec[16:], f.SrcPort)
		binary.BigEndian.PutUint16(rec[18:], f.DstPort)
		rec[20], rec[21] = f.Protocol, f.TCPFlags
		binary.BigEndian.PutUint64(rec[22:], f.Packets)
		binary.BigEndian.PutUint64(rec[30:], f.Bytes)
		binary.BigEndian.PutUint32(rec[38:], f.Ingress)
		binary.BigEndian.PutUint32(rec[42:], f.Egress)
		binary.BigEndian.PutUint32(rec[46:], uint32(l))
		h.Write(rec[:])
		n++
	})
	if got := h.Sum64(); n != wantFlows || got != wantHash {
		t.Fatalf("trace = %d flows, FNV-1a %#016x; want %d flows, %#016x", n, got, wantFlows, wantHash)
	}
}
