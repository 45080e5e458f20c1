package main

import (
	"bytes"
	"fmt"
	"time"

	"spoofscope/benchmark/gen"
	"spoofscope/internal/bgp"
	"spoofscope/internal/core"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/scenario"
)

// inputs is everything a workload is fed, built in set-up from the seed.
type inputs struct {
	scen    *scenario.Scenario
	rib     *bgp.RIB
	members []core.MemberInfo
	opts    core.Options
	start   time.Time
	bucket  time.Duration

	pipeline *core.Pipeline
	wire     *gen.Wire
	// flows is the wire image decoded: what the system is fed. Only the
	// cluster feed and the layer ledger read it while something is measured;
	// see release.
	flows []ipfix.Flow

	// One pass of the trace through a fresh runtime must encode to ref,
	// byte for byte, and leave refTotals as its per-class totals.
	ref       []byte
	refTotals [core.NumTrafficClasses]core.Counter

	cycle []gen.Revision // rib-churn only
}

// inputSpec says which inputs a workload needs.
type inputSpec struct {
	paper     bool // paper-scale table instead of the default scenario
	attack    bool // attack trace instead of the mixed one
	revisions bool // RIB revision cycle
}

// release drops what only set-up needed: the scenario and the decoded trace,
// some tens of megabytes of pointers. Left on the heap they would be marked
// by every collection during the measurement, and collector time that
// production would not spend would land on whichever burst or pass it
// coincided with.
func (in *inputs) release() {
	in.scen, in.flows = nil, nil
}

func (in *inputs) newAggregator() *core.Aggregator { return core.NewAggregator(in.start, in.bucket) }

// buildInputs is a workload's set-up: scenario, RIB, pipeline, trace, wire
// image and reference checkpoint.
func buildInputs(spec inputSpec, seed int64, smoke bool) (*inputs, error) {
	cfg := scenarioConfig(spec.paper, smoke)
	s, err := scenario.Build(cfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		scen:   s,
		rib:    bgp.NewRIB(),
		opts:   core.Options{Orgs: s.Orgs().MultiASGroups()},
		start:  cfg.Start,
		bucket: cfg.Duration / 168,
	}
	for _, a := range s.Anns {
		in.rib.AddAnnouncement(a.Prefix, a.Path)
	}
	for _, m := range s.Members {
		in.members = append(in.members, core.MemberInfo{ASN: m.ASN, Port: m.Port})
	}
	if in.pipeline, _, err = core.RebuildPipeline(nil, in.rib, in.members, in.opts); err != nil {
		return nil, err
	}

	perBucket := defaultPerBucket
	switch {
	case smoke:
		perBucket = smokePerBucket
	case spec.paper:
		perBucket = paperPerBucket
	}
	trace := gen.MixedTrace(s, seed, perBucket)
	if spec.attack {
		trace = gen.AttackTrace(s, trace, seed)
	}
	in.wire = gen.Encode(in.start, trace)
	if in.flows, err = in.wire.Decode(); err != nil {
		return nil, fmt.Errorf("decoding the wire image: %w", err)
	}

	var agg *core.Aggregator
	if in.ref, agg, err = reference(in, in.pipeline, 1); err != nil {
		return nil, err
	}
	in.refTotals = agg.Total

	if spec.revisions {
		if err := buildRevisions(in, seed); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// reference computes, by the simplest path the program offers, what passes
// passes of the trace must leave behind: one Classify and one Add per flow,
// then the canonical encoding of the checkpoint a fresh runtime that
// processed exactly those flows under its first epoch would write.
func reference(in *inputs, p *core.Pipeline, passes int) ([]byte, *core.Aggregator, error) {
	agg := in.newAggregator()
	for n := 0; n < passes; n++ {
		for _, f := range in.flows {
			agg.Add(f, p.Classify(f))
		}
	}
	total := uint64(passes) * uint64(len(in.flows))
	var buf bytes.Buffer
	err := core.EncodeCheckpoint(&buf, &core.Checkpoint{
		Ingested: total, Queued: total, Processed: total,
		Epoch: 1, Swaps: 1, Agg: agg,
	})
	return buf.Bytes(), agg, err
}

// maxAltPaths bounds the search for a re-pathed announcement that leaves
// every verdict of the trace alone.
const maxAltPaths = 8

// buildRevisions derives the RIB revision cycle and checks that it is
// verdict-neutral: the trace must classify under the most-changed revision
// (path changed, all three deltas applied) exactly as under the base table,
// so that the drain's output can be checked while revisions are swapped in
// at times no run can repeat. The renumberings are neutral by construction;
// a path change can tip a relationship inference, in which case the next
// candidate announcement is tried.
func buildRevisions(in *inputs, seed int64) error {
	srcs := gen.Sources(in.flows)
	for alt := 0; alt < maxAltPaths; alt++ {
		cycle := gen.RevisionCycle(in.rib, srcs, seed, alt)
		p, _, err := core.RebuildPipeline(nil, cycle[3].RIB, in.members, in.opts)
		if err != nil {
			return err
		}
		got, _, err := reference(in, p, 1)
		if err != nil {
			return err
		}
		if bytes.Equal(got, in.ref) {
			in.cycle = cycle
			return nil
		}
	}
	return fmt.Errorf("no verdict-neutral AS-path change among the first %d candidates (seed %d)", maxAltPaths, seed)
}
