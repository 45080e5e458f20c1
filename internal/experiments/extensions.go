package experiments

import (
	"fmt"
	"strings"

	"spoofscope/internal/bgp"
	"spoofscope/internal/core"
	"spoofscope/internal/flowgen"
	"spoofscope/internal/stats"
)

// The drivers in this file cover the paper's FUTURE-WORK directions
// (§8): tightening the per-AS valid space ("refining the construction of
// AS-specific prefix lists to achieve tighter bounds") and enriching the
// BGP view with registry-derived relationships ("improving methods to
// derive additional AS relationships from external data"). They are
// ablations over the same environment; ground-truth labels are used only
// to score the outcomes.

// DepthAblationRow is one operating point of the bounded-cone ablation.
type DepthAblationRow struct {
	Depth int // 0 = unlimited (the paper's Full Cone)
	// SpoofedRecall: share of ground-truth spoofed flows flagged
	// (bogon/unrouted/invalid-full).
	SpoofedRecall float64
	// LegitFPRate: share of genuinely legitimate flows (regular +
	// amplification responses) flagged invalid-full.
	LegitFPRate float64
	// InvalidShare of all packets under this depth.
	InvalidShare float64
}

// DepthAblationResult sweeps the Full Cone depth bound.
type DepthAblationResult struct {
	Rows []DepthAblationRow
}

// DepthAblation classifies the environment's traffic under bounded Full
// Cones of increasing depth, plus the unlimited closure.
func DepthAblation(env *Env, depths []int) (*DepthAblationResult, error) {
	var members []core.MemberInfo
	for _, m := range env.Scenario.Members {
		members = append(members, core.MemberInfo{ASN: m.ASN, Port: m.Port})
	}
	res := &DepthAblationResult{}
	for _, d := range depths {
		p, err := core.NewPipeline(env.RIB, members, core.Options{
			Orgs:          env.Scenario.Orgs().MultiASGroups(),
			FullConeDepth: d,
		})
		if err != nil {
			return nil, err
		}
		var spoofed, spoofedHit, legit, legitFP uint64
		var invalidPkts, totalPkts uint64
		for i, f := range env.Flows {
			v := p.Classify(f)
			totalPkts += f.Packets
			flagged := v.Class == core.ClassBogon || v.Class == core.ClassUnrouted ||
				v.InvalidFor(core.ApproachFull)
			if v.InvalidFor(core.ApproachFull) {
				invalidPkts += f.Packets
			}
			switch l := env.Labels[i]; {
			case l.Spoofed():
				spoofed++
				if flagged {
					spoofedHit++
				}
			case l == flowgen.LabelRegular || l == flowgen.LabelNTPResponse:
				legit++
				if v.InvalidFor(core.ApproachFull) {
					legitFP++
				}
			}
		}
		row := DepthAblationRow{Depth: d}
		if spoofed > 0 {
			row.SpoofedRecall = float64(spoofedHit) / float64(spoofed)
		}
		if legit > 0 {
			row.LegitFPRate = float64(legitFP) / float64(legit)
		}
		if totalPkts > 0 {
			row.InvalidShare = float64(invalidPkts) / float64(totalPkts)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the sweep.
func (r *DepthAblationResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension — bounded Full Cone depth sweep (§8 'tighter bounds')\n")
	t := &stats.Table{Header: []string{"depth", "spoofed recall", "legit FP rate", "invalid share"}}
	for _, row := range r.Rows {
		depth := fmt.Sprintf("%d", row.Depth)
		if row.Depth == 0 {
			depth = "∞ (paper)"
		}
		t.AddRow(depth, stats.Percent(row.SpoofedRecall),
			stats.Percent(row.LegitFPRate), stats.Percent(row.InvalidShare))
	}
	b.WriteString(t.Render())
	b.WriteString("(tighter cones catch more spoofing but admit more false positives;\n")
	b.WriteString(" the paper chose the unlimited closure to minimize false positives)\n")
	return b.String()
}

// EnrichmentResult compares the paper's reactive §4.4 hunt against
// proactively feeding all registry-visible links into cone construction.
type EnrichmentResult struct {
	LinksInjected int
	// Legit false-positive rates (invalid-full over legitimate flows).
	BaselineFPRate float64
	EnrichedFPRate float64
	// Spoofed recall under both, to show enrichment does not blind the
	// detector.
	BaselineRecall float64
	EnrichedRecall float64
}

// ProactiveEnrichment parses every member's import/export policies from
// the registry and injects the named links before cone computation.
func ProactiveEnrichment(env *Env) (*EnrichmentResult, error) {
	var members []core.MemberInfo
	for _, m := range env.Scenario.Members {
		members = append(members, core.MemberInfo{ASN: m.ASN, Port: m.Port})
	}
	// Only inject links that the BGP view does NOT already show: visible
	// links already shape the cones with the correct direction, and
	// re-adding them bidirectionally would grant members their providers'
	// address space wholesale.
	probe := envGraph(env, nil)
	var links [][2]bgp.ASN
	seen := make(map[[2]bgp.ASN]bool)
	for _, m := range env.Scenario.Members {
		an, ok := env.Registry.AutNum(m.ASN)
		if !ok {
			continue
		}
		for _, peer := range append(append([]bgp.ASN(nil), an.Imports...), an.Exports...) {
			k := [2]bgp.ASN{m.ASN, peer}
			if seen[k] {
				continue
			}
			seen[k] = true
			u, v := probe.Index(m.ASN), probe.Index(peer)
			if u < 0 || v < 0 || probe.HasEdge(u, v) || probe.HasEdge(v, u) {
				continue // link already visible in BGP (or AS unknown)
			}
			links = append(links, k)
		}
	}

	score := func(p *core.Pipeline) (fpRate, recall float64) {
		var spoofed, spoofedHit, legit, legitFP uint64
		for i, f := range env.Flows {
			v := p.Classify(f)
			flagged := v.Class == core.ClassBogon || v.Class == core.ClassUnrouted ||
				v.InvalidFor(core.ApproachFull)
			switch l := env.Labels[i]; {
			case l.Spoofed():
				spoofed++
				if flagged {
					spoofedHit++
				}
			case l == flowgen.LabelRegular || l == flowgen.LabelNTPResponse ||
				l == flowgen.LabelHiddenPeer:
				legit++
				if v.InvalidFor(core.ApproachFull) {
					legitFP++
				}
			}
		}
		if legit > 0 {
			fpRate = float64(legitFP) / float64(legit)
		}
		if spoofed > 0 {
			recall = float64(spoofedHit) / float64(spoofed)
		}
		return fpRate, recall
	}

	orgs := env.Scenario.Orgs().MultiASGroups()
	baseline, err := core.NewPipeline(env.RIB, members, core.Options{Orgs: orgs})
	if err != nil {
		return nil, err
	}
	enriched, err := core.NewPipeline(env.RIB, members, core.Options{Orgs: orgs, ExtraLinks: links})
	if err != nil {
		return nil, err
	}
	res := &EnrichmentResult{LinksInjected: len(links)}
	res.BaselineFPRate, res.BaselineRecall = score(baseline)
	res.EnrichedFPRate, res.EnrichedRecall = score(enriched)
	return res, nil
}

// Render prints the comparison.
func (r *EnrichmentResult) Render() string {
	return fmt.Sprintf(`Extension — proactive WHOIS enrichment (§8 'external data')
policy links injected into the graph: %d
legit false-positive rate: %s -> %s
spoofed recall:            %s -> %s
(hidden interconnects become valid up front instead of via the reactive
 §4.4 hunt; recall moves little because attack sources stay outside cones)
`, r.LinksInjected,
		stats.Percent(r.BaselineFPRate), stats.Percent(r.EnrichedFPRate),
		stats.Percent(r.BaselineRecall), stats.Percent(r.EnrichedRecall))
}
