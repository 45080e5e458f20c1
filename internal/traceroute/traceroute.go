// Package traceroute is the CAIDA-Ark-style substrate of §5.2: simulated
// traceroute campaigns across the scenario topology whose hop addresses
// are the router interface IPs that border routers actually use. The
// extracted router-address set lets the classifier tag stray router
// traffic inside the Invalid class (Figure 7).
package traceroute

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
	"spoofscope/internal/scenario"
)

// Hop is one traceroute hop: the replying router interface.
type Hop struct {
	TTL  int
	Addr netx.Addr
	ASN  bgp.ASN // AS owning the router (not the address block!)
}

// Run is one simulated traceroute.
type Run struct {
	Monitor bgp.ASN
	Dst     netx.Addr
	Hops    []Hop
}

// Campaign holds the results of a measurement campaign.
type Campaign struct {
	Runs []Run
}

// Simulate runs a campaign: from each of nMonitors vantage ASes toward
// the announced space of every member AS plus extra random origins. Hop
// addresses follow the provider-assigned link numbering of
// scenario.LinkRouterAddrs, with lossFraction of hops unresponsive.
func Simulate(s *scenario.Scenario, nMonitors int, lossFraction float64, seed int64) *Campaign {
	rng := rand.New(rand.NewSource(seed))
	c := &Campaign{}

	// Monitors: spread over stubs (Ark probes sit in edge networks).
	var stubs []int
	for i := 0; i < s.NumASes(); i++ {
		if s.ASInfo(i).Tier == scenario.Stub && len(s.ASInfo(i).Announced) > 0 {
			stubs = append(stubs, i)
		}
	}
	if len(stubs) == 0 {
		return c
	}
	var monitors []int
	for len(monitors) < nMonitors {
		monitors = append(monitors, stubs[rng.Intn(len(stubs))])
	}

	// Destinations: every member AS (so their upstream links are covered)
	// plus random origins.
	var dsts []int
	for _, m := range s.Members {
		dsts = append(dsts, m.ASIndex)
	}
	for i := 0; i < len(dsts)/2; i++ {
		dsts = append(dsts, stubs[rng.Intn(len(stubs))])
	}

	for _, dst := range dsts {
		anns := s.ASInfo(dst).Announced
		if len(anns) == 0 {
			continue
		}
		target := anns[0].First() + netx.Addr(rng.Uint64()%anns[0].NumAddrs())
		for _, mon := range monitors {
			path := s.TrafficPath(mon, dst)
			if path == nil {
				continue
			}
			run := Run{Monitor: s.ASInfo(mon).ASN, Dst: target}
			ttl := 0
			for hi := 1; hi < len(path); hi++ {
				prev, cur := path[hi-1], path[hi]
				ttl++
				if rng.Float64() < lossFraction {
					continue // unresponsive hop
				}
				addr, ok := linkAddr(s, cur, prev)
				if !ok {
					continue
				}
				run.Hops = append(run.Hops, Hop{TTL: ttl, Addr: addr, ASN: s.ASInfo(cur).ASN})
			}
			// Final hop: the destination host itself.
			run.Hops = append(run.Hops, Hop{TTL: ttl + 1, Addr: target, ASN: s.ASInfo(dst).ASN})
			c.Runs = append(c.Runs, run)
		}
	}
	return c
}

// linkAddr returns the interface address router 'cur' uses on its link
// toward neighbour 'prev', when prev is one of cur's providers (the
// provider-assigned link numbering of the scenario).
func linkAddr(s *scenario.Scenario, cur, prev int) (netx.Addr, bool) {
	provs := s.ASInfo(cur).Providers
	addrs := s.LinkRouterAddrs(cur)
	for i, p := range provs {
		if p == prev && i < len(addrs) {
			return addrs[i], true
		}
	}
	return 0, false
}

// RouterSet is the deduplicated set of router interface addresses
// extracted from a campaign — the equivalent of the paper's "router IP
// addresses from some 500M traceroutes".
type RouterSet struct {
	addrs map[netx.Addr]bool
}

// ExtractRouters collects every intermediate (non-destination) hop address.
func (c *Campaign) ExtractRouters() *RouterSet {
	rs := &RouterSet{addrs: make(map[netx.Addr]bool)}
	for _, r := range c.Runs {
		for i, h := range r.Hops {
			if i == len(r.Hops)-1 && h.Addr == r.Dst {
				continue // destination host, not a router
			}
			rs.addrs[h.Addr] = true
		}
	}
	return rs
}

// Addrs returns the addresses (unordered).
func (rs *RouterSet) Addrs() []netx.Addr {
	out := make([]netx.Addr, 0, len(rs.addrs))
	for a := range rs.addrs {
		out = append(out, a)
	}
	return out
}

// ReadRouters reads the routers.txt that cmd/ixpgen writes from Addrs: one
// router interface address per line.
func ReadRouters(path string) ([]netx.Addr, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var addrs []netx.Addr
	var line string
	for {
		if _, err := fmt.Fscanln(f, &line); err != nil {
			if err == io.EOF {
				return addrs, nil
			}
			return nil, err
		}
		a, err := netx.ParseAddr(line)
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, a)
	}
}
