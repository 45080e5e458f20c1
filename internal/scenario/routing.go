package scenario

import (
	"sort"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
)

// Route classes in preference order (higher preferred), following the
// standard Gao-Rexford model: routes learned from customers beat routes
// learned from peers beat routes learned from providers.
const (
	classNone     int8 = 0
	classProvider int8 = 1
	classPeer     int8 = 2
	classCustomer int8 = 3
	classSelf     int8 = 4
)

// routeTree is the result of propagating one origin's announcement through
// the topology: per AS, the best route class, path length, and next hop
// toward the origin.
type routeTree struct {
	origin int
	class  []int8
	dist   []int32
	next   []int32
}

// exportFilter restricts the origin's own first-hop exports (selective
// announcement). nil means export to all neighbours.
type exportFilter map[int]bool

func (f exportFilter) allows(neighbor int) bool {
	if f == nil {
		return true
	}
	return f[neighbor]
}

// propagate computes the valley-free routing tree for origin. Neighbours
// are visited in index order and the descent takes one distance level at a
// time, each in index order, so the tree (and therefore every AS path) is
// reproducible.
func (t *topology) propagate(origin int, filter exportFilter) *routeTree {
	n := len(t.ases)
	rt := &routeTree{
		origin: origin,
		class:  make([]int8, n),
		dist:   make([]int32, n),
		next:   make([]int32, n),
	}
	for i := range rt.next {
		rt.next[i] = -1
		rt.dist[i] = 1 << 30
	}
	rt.class[origin] = classSelf
	rt.dist[origin] = 0
	// relax offers y the route x holds, as class c: y takes it unless the
	// origin's filter keeps it from y or y already holds a route as good.
	relax := func(x, y int, c int8) bool {
		if x == origin && !filter.allows(y) || rt.class[y] >= c {
			return false
		}
		rt.class[y], rt.dist[y], rt.next[y] = c, rt.dist[x]+1, int32(x)
		return true
	}

	// Customer routes climb provider chains, breadth first. Visible
	// org-sibling links provide mutual transit: a sibling adopts the route
	// as if learned from a customer and re-exports it upward, making these
	// internal links broadly visible on AS paths.
	climbed := []int{origin}
	for head := 0; head < len(climbed); head++ {
		x := climbed[head]
		for _, y := range t.adj[x].up {
			if relax(x, y, classCustomer) {
				climbed = append(climbed, y)
			}
		}
	}
	// One peering hop from any customer-route holder (or the origin).
	var peered []int
	for _, x := range climbed {
		for _, y := range t.adj[x].peers {
			if relax(x, y, classPeer) {
				peered = append(peered, y)
			}
		}
	}

	// Provider routes descend customer links from every route holder, one
	// distance level at a time. A level is a bitmap, read in index order:
	// the holders at that distance (climbed and peered are each in
	// distance order) plus what the level above relaxed into it. Every
	// holder's next hop is one level closer, so the first empty level ends
	// the walk.
	level, below := netx.NewBitset(n), netx.NewBitset(n)
	i, j := 0, 0
	for d, more := int32(0), true; more; d++ {
		for ; i < len(climbed) && rt.dist[climbed[i]] == d; i++ {
			level.Set(climbed[i])
		}
		for ; j < len(peered) && rt.dist[peered[j]] == d; j++ {
			level.Set(peered[j])
		}
		more = false
		level.ForEach(func(x int) {
			level.Clear(x)
			more = true
			for _, y := range t.adj[x].down {
				if relax(x, y, classProvider) {
					below.Set(y)
				}
			}
		})
		level, below = below, level
	}
	return rt
}

// path returns the AS path as observed at vantage (vantage leftmost,
// origin rightmost), or nil if the vantage has no route.
func (rt *routeTree) path(t *topology, vantage int) []bgp.ASN {
	if rt.class[vantage] == classNone {
		return nil
	}
	var out []bgp.ASN
	for x := vantage; ; {
		out = append(out, t.ases[x].ASN)
		if x == rt.origin {
			return out
		}
		nx := rt.next[x]
		if nx < 0 || len(out) > len(t.ases) {
			return nil // defensive: broken tree
		}
		x = int(nx)
	}
}

// announcementSet computes all (prefix, path) observations for the given
// vantage ASes (route collector peers) and member ASes (route server
// sessions: members export their own and customer routes).
func (t *topology) announcementSet(collectors, members []int) []bgp.Announcement {
	memberList := sortedCopy(members)
	var anns []bgp.Announcement
	add := func(p netx.Prefix, path []bgp.ASN) {
		if path == nil {
			return
		}
		anns = append(anns, bgp.Announcement{
			Prefix: p,
			Path:   path,
			Origin: path[len(path)-1],
		})
	}

	for oi := range t.ases {
		o := &t.ases[oi]
		if len(o.Announced) == 0 {
			continue
		}
		// Group prefixes by export filter (nil for full export).
		full := o.Announced[:0:0]
		for _, p := range o.Announced {
			if o.SelectiveExport == nil || o.SelectiveExport[p] == nil {
				full = append(full, p)
			}
		}
		if len(full) > 0 {
			rt := t.propagate(oi, nil)
			for _, p := range full {
				t.emitVantages(rt, p, collectors, memberList, add)
			}
		}
		// Deterministic iteration over the (small) selective-export map.
		selective := make([]netx.Prefix, 0, len(o.SelectiveExport))
		for p := range o.SelectiveExport {
			selective = append(selective, p)
		}
		sort.Slice(selective, func(i, j int) bool {
			return selective[i].Compare(selective[j]) < 0
		})
		for _, p := range selective {
			f := make(exportFilter)
			for _, a := range o.SelectiveExport[p] {
				f[a] = true
			}
			rt := t.propagate(oi, f)
			// Selectively-announced prefixes are not announced at the IXP
			// route server either (the origin exports them to one provider
			// only) — the naive approach therefore misses them entirely,
			// the paper's §3.2 asymmetric-announcement blind spot.
			t.emitVantages(rt, p, collectors, nil, add)
		}
	}
	return anns
}

// emitVantages emits one prefix's paths at all vantages.
func (t *topology) emitVantages(rt *routeTree, p netx.Prefix, collectors, members []int, add func(netx.Prefix, []bgp.ASN)) {
	for _, c := range collectors {
		add(p, rt.path(t, c))
	}
	// Route server: members announce own + customer routes — but, as at
	// real route servers, not exhaustively: members apply per-prefix RS
	// export policies, so a deterministic ~30% of customer routes stay
	// bilateral-only and never appear in the RS view (~45% here). (This is one of the
	// drivers of the Naive approach's false positives.)
	for _, m := range members {
		if m == rt.origin {
			add(p, rt.path(t, m))
			continue
		}
		if rt.class[m] != classCustomer {
			continue
		}
		path := rt.path(t, m)
		// Direct customer routes (2-hop paths) are always announced — the
		// bilateral session exists precisely to reach that customer. Deeper
		// cone routes are subject to the export policy.
		if len(path) == 2 || rsExports(m, p) {
			add(p, path)
		}
	}
}

// rsExports is a deterministic pseudo-random RS export policy.
func rsExports(member int, p netx.Prefix) bool {
	h := uint32(member)*2654435761 ^ uint32(p.Addr)>>8 ^ uint32(p.Bits)<<20
	h ^= h >> 13
	h *= 0x85ebca6b
	h ^= h >> 16
	return h%100 < 55
}
