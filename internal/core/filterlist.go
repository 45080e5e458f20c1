package core

import (
	"fmt"

	"spoofscope/internal/astopo"
	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
)

// FilterList generates the prefix whitelist (minimal CIDR cover) that an
// operator would install as the ingress ACL for traffic arriving from the
// member — the automation the paper's introduction says is missing ("no
// reliable general mechanism for automatically creating these kinds of
// filter lists exists"). The list is exactly the member's valid address
// space under the chosen approach, §4.4 whitelists included.
//
// The paper's own caveats apply: under ApproachFull a large transit member
// may legitimately be valid for most of the routed space, producing a
// near-useless (but honest) filter; under ApproachNaive the list breaks
// asymmetric announcements. ApproachCC is the middle ground.
func (p *Pipeline) FilterList(member bgp.ASN, a Approach) ([]netx.Prefix, error) {
	ms, ok := p.byASN[member]
	if !ok {
		return nil, fmt.Errorf("core: unknown member %s", member)
	}
	if ms.asIdx < 0 {
		return nil, fmt.Errorf("core: member %s not visible in BGP", member)
	}

	var space netx.IntervalSet
	switch a {
	case ApproachNaive:
		var ps []netx.Prefix
		ms.naiveEnts.ForEach(func(e int) { ps = append(ps, p.origins.EntryPrefix(int32(e))) })
		space = netx.IntervalSetOfPrefixes(ps...)
	case ApproachCC, ApproachFull:
		set := ms.validCC
		if a == ApproachFull {
			set = ms.validFC
		}
		spaces := p.originSpaces()
		var ivs []netx.Interval
		set.ForEach(func(origin int) {
			ivs = append(ivs, spaces[origin].Intervals()...)
		})
		space = netx.NewIntervalSet(ivs...)
	default:
		return nil, fmt.Errorf("core: unknown approach %v", a)
	}

	// §4.4 corrections belong in the ACL too.
	if len(ms.extra) > 0 {
		space = space.Union(netx.IntervalSetOfPrefixes(ms.extra...))
	}
	return space.Prefixes(), nil
}

// originSpaces computes each AS's announced space on first use.
func (p *Pipeline) originSpaces() []netx.IntervalSet {
	p.spacesOnce.Do(func() { p.spaces = astopo.OriginSpaces(p.graph, p.anns) })
	return p.spaces
}
