package core

import (
	"fmt"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
)

// FilterList generates the prefix whitelist (minimal CIDR cover) that an
// operator would install as the ingress ACL for traffic arriving from the
// member — the automation the paper's introduction says is missing ("no
// reliable general mechanism for automatically creating these kinds of
// filter lists exists"). The list is exactly the member's valid address
// space under the chosen approach, §4.4 whitelists included: a routed
// source is listed iff Classify calls it valid, and no bogon is listed.
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

	var ps []netx.Prefix
	switch a {
	case ApproachNaive:
		ms.naiveEnts.ForEach(func(e int) { ps = append(ps, p.origins.EntryPrefix(int32(e))) })
	case ApproachCC, ApproachFull:
		// Classify credits a routed prefix to its one MOAS-resolved origin:
		// the entries of the origin slab whose origin is in the cone.
		set := ms.validCC
		if a == ApproachFull {
			set = ms.validFC
		}
		for e := int32(0); e < int32(p.origins.Len()); e++ {
			vals, _ := p.origins.EntryChain(e)
			if v := vals[len(vals)-1]; v != bogonSlot {
				if oi := p.originTab[v].idx; oi >= 0 && set.Test(int(oi)) {
					ps = append(ps, p.origins.EntryPrefix(e))
				}
			}
		}
	default:
		return nil, fmt.Errorf("core: unknown approach %v", a)
	}
	// §4.4 corrections belong in the ACL too. Classify checks bogons
	// before anything else, so no approach lists bogon space.
	ps = append(ps, ms.extra...)
	return netx.IntervalSetOfPrefixes(ps...).Subtract(bogonSpace).Prefixes(), nil
}

// bogonSpace is the reference bogon list as one address set.
var bogonSpace = netx.IntervalSetOfPrefixes(bogonPrefixes...)
