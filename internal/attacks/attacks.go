// Package attacks operationalizes §7 of the paper: it turns the stream of
// classified flows into discrete attack events — random-spoofing floods
// (many unique spoofed sources hammering one destination) and NTP
// amplification campaigns (selectively spoofed victims, trigger traffic
// toward amplifiers, paired amplified responses). Where the paper analyses
// these patterns offline, this package provides the streaming detector an
// IXP operator would run on live classified traffic.
package attacks

import (
	"sort"
	"time"

	"spoofscope/internal/core"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
)

// FloodEvent is a detected flooding attack against one destination.
type FloodEvent struct {
	Victim     netx.Addr
	Start, End time.Time
	Packets    uint64
	// UniqueSources approximates the number of distinct spoofed sources.
	UniqueSources int
	// SourceRatio = UniqueSources / Packets; ≈1 for random spoofing.
	SourceRatio float64
	// Class of the spoofed traffic (bogon / unrouted / invalid).
	Class core.TrafficClass
	// Members are the ingress ports that carried the attack.
	Members []uint32
}

// AmplificationCampaign is a detected reflection campaign against a victim.
type AmplificationCampaign struct {
	Victim             netx.Addr
	Start, End         time.Time
	Amplifiers         int
	TriggerPackets     uint64
	TriggerBytes       uint64
	ResponsePackets    uint64
	ResponseBytes      uint64
	AmplificationRatio float64 // response bytes per trigger byte (paired view)
	Members            []uint32
}

// The paper's §7 thresholds.
const (
	// minFloodPackets is the per-victim sampled-packet threshold (the paper
	// used destinations with > 50 sampled packets).
	minFloodPackets = 50
	// minSourceRatio is the unique-source/packet ratio above which a
	// destination's traffic counts as randomly spoofed.
	minSourceRatio = 0.9
	// minTriggerPackets is the per-victim NTP trigger threshold.
	minTriggerPackets = 20
)

// Detector accumulates classified flows and extracts events at Finish.
type Detector struct {
	floods map[floodKey]*floodState
	ntp    map[netx.Addr]*ntpState
}

type floodKey struct {
	victim netx.Addr
	class  core.TrafficClass
}

type floodState struct {
	start, end time.Time
	packets    uint64
	srcs       map[netx.Addr]struct{}
	members    map[uint32]struct{}
}

type ntpState struct {
	start, end    time.Time
	amplifiers    map[netx.Addr]struct{}
	trigPkts      uint64
	trigBytes     uint64
	respPkts      uint64
	respBytes     uint64
	members       map[uint32]struct{}
	pairedTrigger map[netx.Addr]uint64 // per amplifier
}

// NewDetector builds a detector with the paper's thresholds.
func NewDetector() *Detector {
	return &Detector{
		floods: make(map[floodKey]*floodState),
		ntp:    make(map[netx.Addr]*ntpState),
	}
}

// Add consumes one classified flow.
func (d *Detector) Add(f ipfix.Flow, v core.Verdict) {
	// NTP amplification bookkeeping first: triggers are Invalid UDP/123;
	// responses are valid traffic sourced from port 123.
	if f.Protocol == ipfix.ProtoUDP {
		switch {
		case f.DstPort == 123 && v.InvalidFor(core.ApproachFull):
			s := d.ntpFor(f.SrcAddr, f.Start)
			s.amplifiers[f.DstAddr] = struct{}{}
			s.trigPkts += f.Packets
			s.trigBytes += f.Bytes
			s.members[f.Ingress] = struct{}{}
			s.pairedTrigger[f.DstAddr] += f.Bytes
			s.touch(f.Start)
			return
		case f.SrcPort == 123 && v.Class == core.ClassValid:
			if s, ok := d.ntp[f.DstAddr]; ok {
				// Count responses only for victims already seen as
				// trigger sources.
				s.respPkts += f.Packets
				s.respBytes += f.Bytes
				s.touch(f.Start)
			}
			return
		}
	}

	// Floods: spoofed-class traffic per destination.
	var class core.TrafficClass
	switch {
	case v.Class == core.ClassBogon:
		class = core.TCBogon
	case v.Class == core.ClassUnrouted:
		class = core.TCUnrouted
	case v.InvalidFor(core.ApproachFull):
		class = core.TCInvalidFull
	default:
		return
	}
	k := floodKey{f.DstAddr, class}
	s := d.floods[k]
	if s == nil {
		s = &floodState{
			start:   f.Start,
			end:     f.Start,
			srcs:    make(map[netx.Addr]struct{}),
			members: make(map[uint32]struct{}),
		}
		d.floods[k] = s
	}
	s.packets += f.Packets
	s.srcs[f.SrcAddr] = struct{}{}
	s.members[f.Ingress] = struct{}{}
	if f.Start.Before(s.start) {
		s.start = f.Start
	}
	if f.Start.After(s.end) {
		s.end = f.Start
	}
}

func (d *Detector) ntpFor(victim netx.Addr, t time.Time) *ntpState {
	s := d.ntp[victim]
	if s == nil {
		s = &ntpState{
			start:         t,
			end:           t,
			amplifiers:    make(map[netx.Addr]struct{}),
			members:       make(map[uint32]struct{}),
			pairedTrigger: make(map[netx.Addr]uint64),
		}
		d.ntp[victim] = s
	}
	return s
}

func (s *ntpState) touch(t time.Time) {
	if t.Before(s.start) {
		s.start = t
	}
	if t.After(s.end) {
		s.end = t
	}
}

// Floods returns the detected flooding events, largest first.
func (d *Detector) Floods() []FloodEvent {
	var out []FloodEvent
	for k, s := range d.floods {
		if s.packets <= minFloodPackets {
			continue
		}
		ratio := float64(len(s.srcs)) / float64(s.packets)
		if ratio < minSourceRatio {
			continue
		}
		out = append(out, FloodEvent{
			Victim:        k.victim,
			Start:         s.start,
			End:           s.end,
			Packets:       s.packets,
			UniqueSources: len(s.srcs),
			SourceRatio:   ratio,
			Class:         k.class,
			Members:       sortedPorts(s.members),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Packets != out[j].Packets {
			return out[i].Packets > out[j].Packets
		}
		return out[i].Victim < out[j].Victim
	})
	return out
}

// Campaigns returns the detected amplification campaigns, largest first.
func (d *Detector) Campaigns() []AmplificationCampaign {
	var out []AmplificationCampaign
	for victim, s := range d.ntp {
		if s.trigPkts <= minTriggerPackets {
			continue
		}
		c := AmplificationCampaign{
			Victim:          victim,
			Start:           s.start,
			End:             s.end,
			Amplifiers:      len(s.amplifiers),
			TriggerPackets:  s.trigPkts,
			TriggerBytes:    s.trigBytes,
			ResponsePackets: s.respPkts,
			ResponseBytes:   s.respBytes,
			Members:         sortedPorts(s.members),
		}
		if s.trigBytes > 0 {
			c.AmplificationRatio = float64(s.respBytes) / float64(s.trigBytes)
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TriggerPackets != out[j].TriggerPackets {
			return out[i].TriggerPackets > out[j].TriggerPackets
		}
		return out[i].Victim < out[j].Victim
	})
	return out
}

func sortedPorts(m map[uint32]struct{}) []uint32 {
	out := make([]uint32, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
