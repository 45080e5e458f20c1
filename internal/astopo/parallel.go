package astopo

import (
	"sync"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
)

// This file holds the parallel pipeline-compilation path: a level-scheduled
// closure propagation and a dual-closure builder that computes the SCC
// condensation once and derives both cones from it.
//
// tarjanSCC assigns component ids in reverse topological order (every
// condensed edge goes from a higher id to a lower one), so a component's
// reachability bitset depends only on lower-numbered components. Grouping
// components by their longest-path level in the condensation makes levels
// the only barriers: all components of one level can be propagated
// concurrently because their successors live strictly below.

// minParallelLevel is the smallest level width worth fanning out to a worker
// pool; below it the goroutine handoff costs more than the OR work saved.
const minParallelLevel = 64

// closureFrom builds a Closure from an already-computed condensation
// (comp: node -> component id, n components, cond: condensed DAG adjacency)
// propagating reachability bitsets with up to workers goroutines per level.
// workers <= 1 runs the exact sequential loop of newClosure.
func closureFrom(g *Graph, comp []int, n int, cond [][]int32, workers int) *Closure {
	c := &Closure{g: g, comp: comp, nComp: n}
	c.cmemb = make([]int, n)
	for _, ci := range comp {
		c.cmemb[ci]++
	}
	c.reach = make([]*netx.Bitset, n)
	c.size = make([]int, n)
	if workers <= 1 {
		for ci := 0; ci < n; ci++ {
			c.propagate(ci, cond)
		}
		return c
	}

	// Level schedule: level(ci) = 1 + max(level of successors), 0 for sinks.
	// Successor ids are strictly smaller, so one id-order pass suffices.
	level := make([]int32, n)
	var maxLvl int32
	for ci := 0; ci < n; ci++ {
		var l int32
		for _, sc := range cond[ci] {
			if level[sc]+1 > l {
				l = level[sc] + 1
			}
		}
		level[ci] = l
		if l > maxLvl {
			maxLvl = l
		}
	}
	byLevel := make([][]int32, maxLvl+1)
	for ci := 0; ci < n; ci++ {
		byLevel[level[ci]] = append(byLevel[level[ci]], int32(ci))
	}

	for _, comps := range byLevel {
		if len(comps) < minParallelLevel {
			for _, ci := range comps {
				c.propagate(int(ci), cond)
			}
			continue
		}
		var wg sync.WaitGroup
		chunk := (len(comps) + workers - 1) / workers
		for lo := 0; lo < len(comps); lo += chunk {
			hi := lo + chunk
			if hi > len(comps) {
				hi = len(comps)
			}
			wg.Add(1)
			go func(part []int32) {
				defer wg.Done()
				for _, ci := range part {
					c.propagate(int(ci), cond)
				}
			}(comps[lo:hi])
		}
		// The Wait is the level barrier: it orders this level's reach writes
		// before the next level's reads.
		wg.Wait()
	}
	return c
}

// propagate fills component ci's reachability bitset and cone size from its
// already-propagated successors. Safe to call concurrently for distinct
// components of one level.
func (c *Closure) propagate(ci int, cond [][]int32) {
	b := netx.NewBitset(c.nComp)
	b.Set(ci)
	for _, sc := range cond[ci] {
		b.Or(c.reach[sc])
	}
	c.reach[ci] = b
	total := 0
	b.ForEach(func(i int) { total += c.cmemb[i] })
	c.size[ci] = total
}

// customerAdjacency builds the provider→customer adjacency underlying the
// customer-cone closures: inferred p2c links plus, when orgs is non-nil, the
// org-internal mesh traversable in both directions. Every edge is gated on
// its presence in the directed graph — for org links that holds whenever
// AddOrgMesh ran with the same orgs first (as NewPipeline guarantees) — so
// the result is an edge-subset of g.down, the precondition ConeClosures'
// condensation sharing relies on.
func (g *Graph) customerAdjacency(orgs [][]bgp.ASN) [][]int32 {
	adj := make([][]int32, len(g.asns))
	addEdge := func(u, v int32) {
		if g.HasEdge(int(u), int(v)) {
			adj[u] = append(adj[u], v)
		}
	}
	for k, r := range g.rels {
		u, v := k[0], k[1]
		switch r {
		case RelP2C:
			addEdge(u, v)
		case RelC2P:
			addEdge(v, u)
		}
	}
	for _, members := range orgs {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				u, v := g.Index(members[i]), g.Index(members[j])
				if u < 0 || v < 0 {
					continue
				}
				addEdge(int32(u), int32(v))
				addEdge(int32(v), int32(u))
			}
		}
	}
	return adj
}

// ConeClosures computes the Full Cone and the Customer Cone closures in one
// pass, sharing the node-level SCC work between them. orgs == nil matches
// CustomerConeClosure(); non-nil matches CustomerConeWithOrgs(orgs)
// provided AddOrgMesh(orgs) ran first. workers bounds the per-level worker
// pool of the bitset propagation (<= 1 means sequential).
//
// Sharing works by contraction: the customer-cone adjacency is an
// edge-subset of the full graph, so each of its SCCs is strongly connected
// in the full graph too. Contracting the full graph by the customer-cone
// components therefore preserves its SCC structure, and the full graph's
// Tarjan pass runs on the (much smaller) contracted graph instead of the
// node-level one.
func (g *Graph) ConeClosures(orgs [][]bgp.ASN, workers int) (full, cc *Closure) {
	ccAdj := g.customerAdjacency(orgs)
	compCC, nCC := tarjanSCC(ccAdj)

	// Contract g.down by the customer-cone components.
	super := make([][]int32, nCC)
	seen := make(map[[2]int32]struct{}, len(g.asns))
	for u := range g.down {
		cu := int32(compCC[u])
		for _, v := range g.down[u] {
			cv := int32(compCC[v])
			if cu == cv {
				continue
			}
			k := [2]int32{cu, cv}
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			super[cu] = append(super[cu], cv)
		}
	}
	comp2, nFull := tarjanSCC(super)
	fullComp := make([]int, len(g.asns))
	for v := range fullComp {
		fullComp[v] = comp2[compCC[v]]
	}

	full = closureFrom(g, fullComp, nFull, condense(super, comp2, nFull), workers)
	cc = closureFrom(g, compCC, nCC, condense(ccAdj, compCC, nCC), workers)
	return full, cc
}
