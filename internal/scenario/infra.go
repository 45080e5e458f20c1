package scenario

import (
	"spoofscope/internal/netx"
)

// LinkRouterAddrs returns the router interface addresses the AS's border
// routers use on links toward its providers. Following operational
// practice, the link subnet is numbered out of the *provider's* first
// announced block (provider-assigned link space), so these addresses are
// routed but attributed to the provider's origin — exactly the stray
// source addresses of §5.2 that land in Invalid.
//
// The derivation is deterministic, so the traffic generator (which uses
// them as stray ICMP sources) and the traceroute substrate (which must
// rediscover them) agree without sharing state.
func (s *Scenario) LinkRouterAddrs(asIdx int) []netx.Addr {
	var out []netx.Addr
	a := &s.topo.ases[asIdx]
	for _, p := range a.Providers {
		prov := &s.topo.ases[p]
		if len(prov.Announced) == 0 {
			continue
		}
		block := prov.Announced[0]
		// Each customer gets a /30-equivalent slot near the top of the
		// provider block, indexed by its dense index for determinism.
		slot := uint32(asIdx%4096)*4 + 2
		addr := block.Last() - netx.Addr(slot)
		if addr < block.First() {
			addr = block.First() + netx.Addr(slot%uint32(block.NumAddrs()))
		}
		out = append(out, addr)
	}
	return out
}
