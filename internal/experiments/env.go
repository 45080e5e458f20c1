// Package experiments contains one driver per table and figure of the
// paper's evaluation. Every driver consumes a shared Env (scenario, BGP
// view, compiled pipeline, classified traffic) and returns a structured
// result with a Render method that prints the same rows/series the paper
// reports.
//
// The per-experiment index lives in DESIGN.md §4.
package experiments

import (
	"bytes"
	"fmt"

	"spoofscope/internal/bgp"
	"spoofscope/internal/core"
	"spoofscope/internal/flowgen"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
	"spoofscope/internal/scenario"
	"spoofscope/internal/spoofer"
	"spoofscope/internal/traceroute"
	"spoofscope/internal/whois"
)

// Env is the fully assembled measurement environment: everything every
// experiment needs, built once.
type Env struct {
	Scenario *scenario.Scenario
	RIB      *bgp.RIB
	Pipeline *core.Pipeline
	Routers  *traceroute.RouterSet
	Registry *whois.Registry
	Spoofer  *spoofer.Dataset

	// Flows is the full sampled traffic with ground-truth labels (labels
	// are used only by validation, never by classification).
	Flows  []ipfix.Flow
	Labels []flowgen.Label

	// Agg is the one-pass aggregate over all flows.
	Agg *core.Aggregator
}

// Options tunes environment construction.
type Options struct {
	Scenario scenario.Config
	Flowgen  flowgen.Config
	// TracerouteMonitors / TracerouteLoss parameterize the Ark substrate.
	TracerouteMonitors int
	TracerouteLoss     float64
	// SpooferMemberFraction is the member coverage of the active probes
	// (the paper found direct data for ~8% of members; default 0.08).
	SpooferMemberFraction float64
}

// DefaultOptions uses the default scenario and traffic volumes.
func DefaultOptions() Options {
	return Options{
		Scenario:              scenario.DefaultConfig(),
		Flowgen:               flowgen.DefaultConfig(),
		TracerouteMonitors:    10,
		TracerouteLoss:        0.05,
		SpooferMemberFraction: 0.08,
	}
}

// SmallOptions is sized for tests.
func SmallOptions() Options {
	o := DefaultOptions()
	o.Scenario = scenario.SmallConfig()
	o.Flowgen.RegularPerBucket = 150
	o.SpooferMemberFraction = 0.3
	return o
}

// NewEnv builds the environment: scenario -> MRT -> RIB -> pipeline ->
// traffic -> classification.
func NewEnv(opts Options) (*Env, error) {
	s, err := scenario.Build(opts.Scenario)
	if err != nil {
		return nil, err
	}
	var mrt bytes.Buffer
	if err := s.WriteMRT(&mrt); err != nil {
		return nil, fmt.Errorf("experiments: exporting MRT: %w", err)
	}
	rib := bgp.NewRIB()
	if err := rib.LoadMRT(&mrt); err != nil {
		return nil, fmt.Errorf("experiments: loading MRT: %w", err)
	}

	routers := traceroute.Simulate(s, opts.TracerouteMonitors, opts.TracerouteLoss, opts.Scenario.Seed+1).ExtractRouters()

	var members []core.MemberInfo
	for _, m := range s.Members {
		members = append(members, core.MemberInfo{ASN: m.ASN, Port: m.Port})
	}
	p, err := core.NewPipeline(rib, members, core.Options{
		Orgs:    s.Orgs().MultiASGroups(),
		Routers: netx.NewAddrSet(routers.Addrs()),
	})
	if err != nil {
		return nil, err
	}

	env := &Env{
		Scenario: s,
		RIB:      rib,
		Pipeline: p,
		Routers:  routers,
		Registry: whois.FromScenario(s),
		Spoofer:  spoofer.Simulate(s, opts.SpooferMemberFraction, opts.Scenario.Seed+2),
	}

	g := flowgen.New(s, opts.Flowgen)
	env.Agg = core.NewAggregator(s.Cfg.Start, s.Cfg.Duration/168) // ~hourly for a week
	g.Generate(func(f ipfix.Flow, l flowgen.Label) {
		env.Flows = append(env.Flows, f)
		env.Labels = append(env.Labels, l)
		env.Agg.Add(f, p.Classify(f))
	})
	for _, m := range s.Members {
		env.Agg.SetMemberASN(m.Port, m.ASN)
	}
	return env, nil
}

// Reclassify rebuilds the aggregate after pipeline mutations (§4.4's
// whitelist corrections). It returns the fresh aggregate without replacing
// env.Agg.
func (e *Env) Reclassify() *core.Aggregator {
	agg := core.NewAggregator(e.Scenario.Cfg.Start, e.Scenario.Cfg.Duration/168)
	for _, f := range e.Flows {
		agg.Add(f, e.Pipeline.Classify(f))
	}
	for _, m := range e.Scenario.Members {
		agg.SetMemberASN(m.Port, m.ASN)
	}
	return agg
}

// SamplingRate is the vantage point's packet sampling rate.
func (e *Env) SamplingRate() uint64 { return uint64(e.Scenario.Cfg.SamplingRate) }
