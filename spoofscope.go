// Package spoofscope is a from-scratch reproduction of "Detection,
// Classification, and Analysis of Inter-Domain Traffic with Spoofed Source
// IP Addresses" (Lichtblau et al., ACM IMC 2017).
//
// It provides a passive spoofing classifier for inter-domain traffic: each
// flow's source address is matched, strictly sequentially, against the
// bogon list, the routed address space, and the sending member's valid
// address space as inferred from BGP data under three approaches (Naive,
// Customer Cone, Full Cone), yielding the mutually exclusive classes
// Bogon / Unrouted / Invalid / Valid.
//
// The package is a facade over the implementation in internal/: it
// re-exports the classifier, the flow and BGP substrates, and a full
// synthetic-IXP simulation used to regenerate every table and figure of
// the paper's evaluation (see DESIGN.md and EXPERIMENTS.md).
//
// Quick start:
//
//	sim, _ := spoofscope.NewSimulation(spoofscope.SimulationSizeSmall, 1)
//	verdict := sim.Classifier().Classify(flow)
//	if verdict.Class == spoofscope.ClassInvalid { ... }
//
// To classify real data instead, feed MRT routing data and IPFIX flows:
//
//	cls, _ := spoofscope.NewClassifierFromMRT(mrtReader, members, spoofscope.ClassifierOptions{})
//	cls.ClassifyIPFIX(flowReader, func(f spoofscope.Flow, v spoofscope.Verdict) bool { ...; return true })
package spoofscope

import (
	"fmt"
	"io"

	"spoofscope/internal/attacks"
	"spoofscope/internal/bgp"
	"spoofscope/internal/bogon"
	"spoofscope/internal/core"
	"spoofscope/internal/experiments"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
	"spoofscope/internal/scenario"
)

// Re-exported core types. Aliases keep the public API in one import path
// while the implementation lives in internal packages.
type (
	// Flow is one sampled flow record (IPFIX-derived).
	Flow = ipfix.Flow
	// Verdict is a flow's classification.
	Verdict = core.Verdict
	// Class is the AS-agnostic classification outcome.
	Class = core.Class
	// Approach selects a valid-space inference method.
	Approach = core.Approach
	// Member identifies an IXP member (ASN + switch port).
	Member = core.MemberInfo
	// ASN is an autonomous system number.
	ASN = bgp.ASN
	// Addr is an IPv4 address.
	Addr = netx.Addr
	// Prefix is an IPv4 CIDR prefix.
	Prefix = netx.Prefix
)

// Live-ingestion health types. The deployment surfaces (bgp.Session /
// bgp.Reconnector, the IPFIX collectors) expose these counters so an
// operator can tell a quiet feed from a degraded one: negotiated hold time
// and message counts per BGP session, flap/retry totals per supervised
// session, and drop/malformed/disconnect tallies per collector.
type (
	// SessionStats snapshots one BGP session's negotiated hold time and
	// message counters (bgp.Session.Stats).
	SessionStats = bgp.SessionStats
	// ReconnectorStats snapshots a supervised BGP session's state and
	// flap/retry counters (bgp.Reconnector.Stats).
	ReconnectorStats = bgp.ReconnectorStats
	// CollectorStats snapshots an IPFIX collector's transport health
	// (ipfix.TCPCollector.Stats / ipfix.UDPCollector.Stats).
	CollectorStats = ipfix.CollectorStats
)

// Classification classes.
const (
	ClassValid    = core.ClassValid
	ClassBogon    = core.ClassBogon
	ClassUnrouted = core.ClassUnrouted
	ClassInvalid  = core.ClassInvalid
)

// Inference approaches.
const (
	ApproachNaive = core.ApproachNaive
	ApproachCC    = core.ApproachCC
	ApproachFull  = core.ApproachFull
)

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) { return netx.ParseAddr(s) }

// ParsePrefix parses CIDR notation (host bits are zeroed).
func ParsePrefix(s string) (Prefix, error) { return netx.ParsePrefix(s) }

// ClassifierOptions tunes classifier construction.
type ClassifierOptions struct {
	// Orgs lists multi-AS organisation groups to merge into the cones.
	Orgs [][]ASN
	// RouterAddrs, when non-empty, tags stray router-sourced traffic.
	RouterAddrs []Addr
}

// Classifier is the compiled passive spoofing detector.
type Classifier struct {
	pipeline *core.Pipeline
}

// NewClassifierFromMRT builds a classifier from an MRT stream (TABLE_DUMP_V2
// and/or BGP4MP records) and the IXP member table.
func NewClassifierFromMRT(mrt io.Reader, members []Member, opts ClassifierOptions) (*Classifier, error) {
	rib := bgp.NewRIB()
	if err := rib.LoadMRT(mrt); err != nil {
		return nil, fmt.Errorf("spoofscope: loading MRT: %w", err)
	}
	return NewClassifierFromRIB(rib, members, opts)
}

// NewClassifierFromRIB builds a classifier from an already-digested RIB.
func NewClassifierFromRIB(rib *bgp.RIB, members []Member, opts ClassifierOptions) (*Classifier, error) {
	p, err := core.NewPipeline(rib, members, opts.coreOptions())
	if err != nil {
		return nil, err
	}
	return &Classifier{pipeline: p}, nil
}

// coreOptions lowers the facade options into the internal pipeline options,
// building the router set once.
func (opts ClassifierOptions) coreOptions() core.Options {
	o := core.Options{Orgs: opts.Orgs}
	if len(opts.RouterAddrs) > 0 {
		o.Routers = netx.NewAddrSet(opts.RouterAddrs)
	}
	return o
}

// Classify runs the Figure-3 pipeline on one flow. Safe for concurrent use.
func (c *Classifier) Classify(f Flow) Verdict { return c.pipeline.Classify(f) }

// AllowSource whitelists an address range for a member (the paper's §4.4
// correction after confirming a missing AS relationship out of band).
// Not safe to call concurrently with Classify.
func (c *Classifier) AllowSource(member ASN, p Prefix) error {
	return c.pipeline.AllowSource(member, p)
}

// ClassifyIPFIX streams an IPFIX file (concatenated messages) through the
// classifier. fn returning false stops early.
func (c *Classifier) ClassifyIPFIX(r io.Reader, fn func(Flow, Verdict) bool) error {
	fr := ipfix.NewFileReader(r)
	return fr.ForEachBatch(func(batch []ipfix.Flow) bool {
		for _, f := range batch {
			if !fn(f, c.pipeline.Classify(f)) {
				return false
			}
		}
		return true
	})
}

// Pipeline exposes the underlying pipeline for advanced analyses
// (aggregation, cone inspection).
func (c *Classifier) Pipeline() *core.Pipeline { return c.pipeline }

// FilterList generates the ingress ACL (minimal CIDR whitelist) for
// traffic arriving from a member under the chosen inference approach —
// the automated filter-list construction the paper's introduction calls
// for. See core.Pipeline.FilterList for caveats per approach.
func (c *Classifier) FilterList(member ASN, a Approach) ([]Prefix, error) {
	return c.pipeline.FilterList(member, a)
}

// Attack-event types (see internal/attacks).
type (
	// FloodEvent is a detected random-spoofing flood against one victim.
	FloodEvent = attacks.FloodEvent
	// AmplificationCampaign is a detected NTP reflection campaign.
	AmplificationCampaign = attacks.AmplificationCampaign
)

// DetectAttacks classifies flows and extracts the §7 attack events:
// random-spoofing floods and NTP amplification campaigns, largest first.
func (c *Classifier) DetectAttacks(flows []Flow) ([]FloodEvent, []AmplificationCampaign) {
	d := attacks.NewDetector(attacks.Config{})
	for _, f := range flows {
		d.Add(f, c.pipeline.Classify(f))
	}
	return d.Floods(), d.Campaigns()
}

// BogonList returns the built-in bogon reference (14 aggregated prefixes).
func BogonList() []Prefix {
	entries := bogon.Reference()
	out := make([]Prefix, len(entries))
	for i, e := range entries {
		out[i] = e.Prefix
	}
	return out
}

// SimulationSize selects a synthetic-IXP scale.
type SimulationSize int

// Simulation scales.
const (
	// SimulationSizeSmall: ~250 ASes, 60 members, one day. Unit tests.
	SimulationSizeSmall SimulationSize = iota
	// SimulationSizeDefault: ~1.5K ASes, 220 members, one week.
	SimulationSizeDefault
	// SimulationSizePaper: ~6.4K ASes, 700 members, four weeks.
	SimulationSizePaper
)

// Simulation bundles a synthetic IXP environment: topology, BGP view,
// labeled traffic, and a compiled classifier: the experiment harness's
// environment behind the public API, which the package's Example functions
// run on.
type Simulation struct {
	env *experiments.Env
}

// NewSimulation builds a deterministic synthetic environment.
func NewSimulation(size SimulationSize, seed int64) (*Simulation, error) {
	opts := experiments.DefaultOptions()
	switch size {
	case SimulationSizeSmall:
		opts = experiments.SmallOptions()
	case SimulationSizePaper:
		opts.Scenario = scenario.PaperScaleConfig()
	}
	opts.Scenario.Seed = seed
	env, err := experiments.NewEnv(opts)
	if err != nil {
		return nil, err
	}
	return &Simulation{env: env}, nil
}

// Classifier returns the simulation's compiled classifier.
func (s *Simulation) Classifier() *Classifier {
	return &Classifier{pipeline: s.env.Pipeline}
}

// Flows returns the simulation's sampled traffic (classifier input).
func (s *Simulation) Flows() []Flow { return s.env.Flows }

// Members returns the IXP member table.
func (s *Simulation) Members() []Member {
	out := make([]Member, 0, len(s.env.Scenario.Members))
	for _, m := range s.env.Scenario.Members {
		out = append(out, Member{ASN: m.ASN, Port: m.Port})
	}
	return out
}

// GroundTruthSpoofed reports whether flow i was generated as intentionally
// spoofed traffic — evaluation only; the classifier never sees labels.
func (s *Simulation) GroundTruthSpoofed(i int) bool {
	return s.env.Labels[i].Spoofed()
}

// Env exposes the full experiment environment (drivers in
// internal/experiments consume it).
func (s *Simulation) Env() *experiments.Env { return s.env }

// RunExperiments renders every table and figure of the paper into w.
func (s *Simulation) RunExperiments(w io.Writer) error {
	return experiments.RunAll(s.env, w)
}

// GenerateTraffic writes the simulation's flows as an IPFIX stream —
// useful for feeding the cmd/classify tool or external collectors.
func (s *Simulation) GenerateTraffic(w io.Writer) error {
	fw := ipfix.NewFileWriter(w, 1)
	start, _ := s.env.Scenario.Window()
	if err := fw.Write(start, s.env.Flows); err != nil {
		return err
	}
	return fw.Flush()
}

// WriteMRT exports the simulation's BGP view as an MRT stream.
func (s *Simulation) WriteMRT(w io.Writer) error {
	return s.env.Scenario.WriteMRT(w)
}

// Labels exposes the ground-truth label names per flow (evaluation only).
func (s *Simulation) Labels() []string {
	out := make([]string, len(s.env.Labels))
	for i, l := range s.env.Labels {
		out[i] = l.String()
	}
	return out
}
