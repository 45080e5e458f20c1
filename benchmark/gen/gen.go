// Package gen builds the benchmark's inputs. Every builder is a pure
// function of its arguments and a seed: the same seed gives byte-identical
// inputs, so a run can be repeated and two commits can be fed the same
// bytes. The system under test never sees a seed, only what is built here.
package gen

import (
	"math/rand"
	"sort"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/flowgen"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
	"spoofscope/internal/scenario"
)

// RecordsPerMessage is the IPFIX message size of every wire image: 64
// records, the batch the collectors hand to the queue in one call.
const RecordsPerMessage = 64

// MixedTrace is the scenario's typical week of sampled traffic (mostly
// Valid, with the generator's leak and attack background), in the order the
// vantage point exports it. perBucket is the regular-flow budget per
// ten-minute bucket and so sets the trace length.
func MixedTrace(s *scenario.Scenario, seed int64, perBucket int) []ipfix.Flow {
	cfg := flowgen.DefaultConfig()
	cfg.Seed = seed
	cfg.RegularPerBucket = perBucket
	var flows []ipfix.Flow
	flowgen.New(s, cfg).Generate(func(f ipfix.Flow, _ flowgen.Label) {
		flows = append(flows, f)
	})
	return flows
}

// Attack-trace composition, as shares of all flows. The remaining fifth is
// background taken from the mixed trace.
const (
	attackBackground = 0.20 // flows copied from the mixed trace
	attackSynFlood   = 0.42 // random-source TCP SYNs at a few victims
	attackScatter    = 0.16 // random source and random routed destination
	attackNTPTrigger = 0.14 // UDP to port 123, source = victim
	// the rest: NTP responses from port 123, amplifier to victim

	attackFloodVictims = 64
	attackNTPVictims   = 512
	attackAmplifiers   = 4096
)

// AttackTrace synthesises a trace of the same length and time span as mixed
// in which about four flows in five are spoofed: uniform-random-source SYN
// floods (which classify Bogon, Unrouted or Invalid and miss the LPM),
// NTP trigger flows with their amplifier responses, many distinct sources
// and destinations, and an ingress member that changes on nearly every flow.
// It is the input on which the aggregator inserts keys instead of
// incrementing warm counters.
func AttackTrace(s *scenario.Scenario, mixed []ipfix.Flow, seed int64) []ipfix.Flow {
	rng := rand.New(rand.NewSource(seed))
	ports := make([]uint32, len(s.Members))
	byASN := make(map[bgp.ASN]int, len(s.Members))
	for i, m := range s.Members {
		ports[i] = m.Port
		byASN[m.ASN] = i
	}
	// Routed prefixes, and the ones a member originates itself: a source in
	// a member's own prefix entering at that member's port is Valid under
	// every approach, which is what an amplifier's response must be.
	var routed []netx.Prefix
	own := make([][]netx.Prefix, len(s.Members))
	seen := make(map[netx.Prefix]bool)
	for _, a := range s.Anns {
		if seen[a.Prefix] {
			continue
		}
		seen[a.Prefix] = true
		routed = append(routed, a.Prefix)
		if mi, ok := byASN[a.Origin]; ok {
			own[mi] = append(own[mi], a.Prefix)
		}
	}
	sort.Slice(routed, func(i, j int) bool { return routed[i].Compare(routed[j]) < 0 })
	var owners []int
	for mi := range own {
		if len(own[mi]) > 0 {
			sort.Slice(own[mi], func(i, j int) bool { return own[mi][i].Compare(own[mi][j]) < 0 })
			owners = append(owners, mi)
		}
	}
	addrIn := func(p netx.Prefix) netx.Addr {
		return netx.Addr(uint32(p.Addr) + uint32(rng.Int63n(int64(p.NumAddrs()))))
	}
	routedAddr := func() netx.Addr { return addrIn(routed[rng.Intn(len(routed))]) }

	floodVictims := make([]netx.Addr, attackFloodVictims)
	for i := range floodVictims {
		floodVictims[i] = routedAddr()
	}
	ntpVictims := make([]netx.Addr, attackNTPVictims)
	for i := range ntpVictims {
		ntpVictims[i] = routedAddr()
	}
	type amplifier struct {
		addr netx.Addr
		port uint32
	}
	amps := make([]amplifier, attackAmplifiers)
	for i := range amps {
		mi := owners[rng.Intn(len(owners))]
		amps[i] = amplifier{addr: addrIn(own[mi][rng.Intn(len(own[mi]))]), port: ports[mi]}
	}
	anyPort := func() uint32 { return ports[rng.Intn(len(ports))] }
	ephemeral := func() uint16 { return uint16(1024 + rng.Intn(64512)) }

	out := make([]ipfix.Flow, len(mixed))
	for i := range mixed {
		f := ipfix.Flow{Start: mixed[i].Start, Egress: anyPort()}
		switch u := rng.Float64(); {
		case u < attackBackground:
			f = mixed[i]
		case u < attackBackground+attackSynFlood:
			f.SrcAddr, f.DstAddr = netx.Addr(rng.Uint32()), floodVictims[rng.Intn(len(floodVictims))]
			f.SrcPort, f.DstPort = ephemeral(), 80
			if rng.Intn(2) == 0 {
				f.DstPort = 443
			}
			f.Protocol, f.TCPFlags = ipfix.ProtoTCP, 0x02
			f.Packets, f.Bytes, f.Ingress = 1, uint64(40+rng.Intn(21)), anyPort()
		case u < attackBackground+attackSynFlood+attackScatter:
			f.SrcAddr, f.DstAddr = netx.Addr(rng.Uint32()), routedAddr()
			f.SrcPort, f.DstPort = ephemeral(), ephemeral()
			f.Protocol = ipfix.ProtoUDP
			f.Packets, f.Bytes, f.Ingress = 1, uint64(60+rng.Intn(1200)), anyPort()
		case u < attackBackground+attackSynFlood+attackScatter+attackNTPTrigger:
			f.SrcAddr, f.DstAddr = ntpVictims[rng.Intn(len(ntpVictims))], amps[rng.Intn(len(amps))].addr
			f.SrcPort, f.DstPort = ephemeral(), 123
			f.Protocol = ipfix.ProtoUDP
			f.Packets = uint64(1 + rng.Intn(3))
			f.Bytes, f.Ingress = 76*f.Packets, anyPort()
		default:
			a := amps[rng.Intn(len(amps))]
			f.SrcAddr, f.DstAddr = a.addr, ntpVictims[rng.Intn(len(ntpVictims))]
			f.SrcPort, f.DstPort = 123, ephemeral()
			f.Protocol = ipfix.ProtoUDP
			f.Packets = uint64(4 + rng.Intn(12))
			f.Bytes, f.Ingress = 468*f.Packets, a.port
		}
		out[i] = f
	}
	return out
}

// Wire is a trace pre-encoded as back-to-back IPFIX messages, the template
// message first, so that a message's bytes can be written to a socket or
// read from memory without encoding inside a timed region.
type Wire struct {
	Bytes []byte
	// Off[i] is where data message i starts; Off[len-1] is len(Bytes). The
	// template message is the prefix before Off[0].
	Off []int
	// Flows is the number of records in the image.
	Flows int
}

// Messages is the number of data messages.
func (w *Wire) Messages() int { return len(w.Off) - 1 }

// FlowsIn is the number of records in data message m: RecordsPerMessage, but
// for a shorter last one.
func (w *Wire) FlowsIn(m int) int {
	if rest := w.Flows - m*RecordsPerMessage; rest < RecordsPerMessage {
		return rest
	}
	return RecordsPerMessage
}

// Encode frames flows into RecordsPerMessage-record messages stamped with
// exportTime.
func Encode(exportTime time.Time, flows []ipfix.Flow) *Wire {
	enc := ipfix.NewEncoder(1)
	enc.MaxRecordsPerMessage = RecordsPerMessage
	w := &Wire{Bytes: enc.TemplateMessage(exportTime), Flows: len(flows)}
	for _, msg := range enc.Encode(exportTime, flows) {
		w.Off = append(w.Off, len(w.Bytes))
		w.Bytes = append(w.Bytes, msg...)
	}
	w.Off = append(w.Off, len(w.Bytes))
	return w
}

// Decode reads the image back with the per-message decoder. What it returns
// is what the system is really fed: start times carry the wire's
// millisecond resolution, not the generator's.
func (w *Wire) Decode() ([]ipfix.Flow, error) {
	dec := ipfix.NewDecoder()
	flows := make([]ipfix.Flow, 0, w.Flows)
	var err error
	if flows, err = dec.Decode(w.Bytes[:w.Off[0]], flows); err != nil {
		return nil, err
	}
	for i := 0; i < w.Messages(); i++ {
		if flows, err = dec.Decode(w.Bytes[w.Off[i]:w.Off[i+1]], flows); err != nil {
			return nil, err
		}
	}
	return flows, nil
}

// Schedule is the open-loop send schedule of the live workload: every Cycle
// starts with a stretch at BaseRate and ends with a burst of length Burst at
// BurstRate (both in flows per second). The exporter flushes every Tick: a
// flow is due at the first tick at or after the instant its rate puts it.
// The schedule does not slow down when the system does.
type Schedule struct {
	Cycle, Burst, Tick  time.Duration
	BaseRate, BurstRate float64
}

// FlowsPerCycle is the number of flows due in one cycle.
func (s Schedule) FlowsPerCycle() float64 {
	return s.BaseRate*(s.Cycle-s.Burst).Seconds() + s.BurstRate*s.Burst.Seconds()
}

// Due is when flow number n (from 0) is due, measured from the start of the
// schedule.
func (s Schedule) Due(n int64) time.Duration {
	per := s.FlowsPerCycle()
	cycles := float64(int64(float64(n) / per))
	rem := float64(n) - cycles*per
	base := s.BaseRate * (s.Cycle - s.Burst).Seconds()
	var in float64
	if rem < base {
		in = rem / s.BaseRate
	} else {
		in = (s.Cycle - s.Burst).Seconds() + (rem-base)/s.BurstRate
	}
	at := time.Duration((cycles*s.Cycle.Seconds() + in) * float64(time.Second))
	return (at + s.Tick - 1) / s.Tick * s.Tick
}

// Clear reports whether an offset falls in the second half of a cycle's base
// stretch: outside any burst and long after the backlog of the last one.
func (s Schedule) Clear(at time.Duration) bool {
	in := at % s.Cycle
	return in >= (s.Cycle-s.Burst)/2 && in <= s.Cycle-s.Burst
}
