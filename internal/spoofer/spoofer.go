// Package spoofer simulates the CAIDA Spoofer project's crowd-sourced
// active measurements (§4.5): probes inside ASes craft packets with
// spoofed source addresses and send them toward a measurement server; a
// probe "succeeds" when no AS along the forwarding path filters it. The
// results are the active-measurement side of the paper's cross-check
// against passive detection.
package spoofer

import (
	"math/rand"
	"sort"

	"spoofscope/internal/bgp"
	"spoofscope/internal/scenario"
)

// Result is the outcome of probing one AS.
type Result struct {
	ASN bgp.ASN
	// Sessions is how many probe sessions ran during the year-long window.
	Sessions int
	// CouldSpoof is true when at least one spoofed probe reached the
	// measurement server.
	CouldSpoof bool
	// BlockedAt, for filtered probes, names the first AS that dropped the
	// packet (the probe's own AS when egress filtering works).
	BlockedAt bgp.ASN
}

// Dataset is a spoofer measurement campaign.
type Dataset struct {
	Results []Result
	byASN   map[bgp.ASN]*Result
}

// Simulate runs probes from a sample of ASes: memberFraction of the IXP
// members (the paper found direct measurements for 8% of members) plus
// extra non-member stubs. A probe escapes its own AS when the AS's
// ground-truth egress filtering lets spoofed traffic out, and then must
// survive transit filtering along the ground-truth forwarding path to the
// measurement server.
func Simulate(s *scenario.Scenario, memberFraction float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{byASN: make(map[bgp.ASN]*Result)}

	probe := func(asIdx int, emitsSpoofable bool) {
		asn := s.ASInfo(asIdx).ASN
		if _, dup := d.byASN[asn]; dup {
			return
		}
		res := Result{ASN: asn, Sessions: 1 + rng.Intn(5)}
		switch {
		case !emitsSpoofable:
			// The AS's own egress filtering drops the probe.
			res.BlockedAt = asn
		default:
			path := s.TrafficPath(asIdx, s.MeasurementServer)
			if path == nil {
				res.BlockedAt = asn // no route: treat as not spoofable
				break
			}
			res.CouldSpoof = true
			for _, hop := range path[1:] {
				if s.TransitFilters[hop] {
					res.CouldSpoof = false
					res.BlockedAt = s.ASInfo(hop).ASN
					break
				}
			}
		}
		d.Results = append(d.Results, res)
		d.byASN[asn] = &d.Results[len(d.Results)-1]
	}

	// Member probes.
	order := rng.Perm(len(s.Members))
	n := int(float64(len(s.Members)) * memberFraction)
	for _, i := range order[:n] {
		m := &s.Members[i]
		// Ground truth spoofability: the member's network lets spoofed
		// traffic out iff it emits unrouted or invalid traffic.
		probe(m.ASIndex, m.EmitsUnrouted || m.EmitsInvalid)
	}

	// Non-member stub probes (the broader crowd-sourced population).
	var stubs []int
	memberSet := make(map[int]bool)
	for _, m := range s.Members {
		memberSet[m.ASIndex] = true
	}
	for i := 0; i < s.NumASes(); i++ {
		if s.ASInfo(i).Tier == scenario.Stub && !memberSet[i] {
			stubs = append(stubs, i)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	for i := 0; i < len(stubs)/4; i++ {
		// Non-members: ~45% of stub networks lack egress filtering.
		probe(stubs[i], rng.Float64() < 0.45)
	}

	sort.Slice(d.Results, func(i, j int) bool { return d.Results[i].ASN < d.Results[j].ASN })
	// Rebuild pointers after sorting.
	for i := range d.Results {
		d.byASN[d.Results[i].ASN] = &d.Results[i]
	}
	return d
}

// CrossCheck compares the active dataset with a passive per-AS spoofing
// verdict (ASN -> passive detected spoofed traffic). It mirrors §4.5's
// metrics over the overlap population.
type CrossCheck struct {
	Overlap             int // ASes with both active and passive data
	PassiveDetected     int // passive saw spoofed traffic
	ActiveSpoofable     int // active says spoofing possible
	AgreeOnPassive      int // of passive detections, active agrees
	ActiveAlsoDetected  int // of active spoofable, passive also detected
	PassiveOnlyDetected int
	ActiveOnlyDetected  int
}

// CrossCheckPassive computes the §4.5 comparison for the ASes present in
// both datasets.
func (d *Dataset) CrossCheckPassive(passive map[bgp.ASN]bool) CrossCheck {
	var c CrossCheck
	for asn, detected := range passive {
		r, ok := d.byASN[asn]
		if !ok {
			continue
		}
		c.Overlap++
		if detected {
			c.PassiveDetected++
		}
		if r.CouldSpoof {
			c.ActiveSpoofable++
		}
		switch {
		case detected && r.CouldSpoof:
			c.AgreeOnPassive++
			c.ActiveAlsoDetected++
		case detected && !r.CouldSpoof:
			c.PassiveOnlyDetected++
		case !detected && r.CouldSpoof:
			c.ActiveOnlyDetected++
		}
	}
	return c
}
