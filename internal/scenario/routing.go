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

// propagate computes the valley-free routing tree for origin in a tree of
// its own.
func (t *topology) propagate(origin int, filter exportFilter) *routeTree {
	return new(walker).propagate(t, origin, filter)
}

// walker is one propagation's storage — the tree and the walk's queues and
// level bitmaps — which successive walks reuse: a walk overwrites the tree
// the previous one returned.
type walker struct {
	rt              routeTree
	climbed, peered []int
	level, below    *netx.Bitset
}

// propagate computes the valley-free routing tree for origin. Neighbours
// are visited in index order and the descent takes one distance level at a
// time, each in index order, so the tree (and therefore every AS path) is
// reproducible.
func (w *walker) propagate(t *topology, origin int, filter exportFilter) *routeTree {
	n := len(t.ases)
	rt := &w.rt
	if len(rt.class) != n {
		rt.class, rt.dist, rt.next = make([]int8, n), make([]int32, n), make([]int32, n)
		// Every walk leaves both bitmaps empty (it ends on an empty level
		// that relaxed nothing into the next).
		w.level, w.below = netx.NewBitset(n), netx.NewBitset(n)
	}
	rt.origin = origin
	clear(rt.class)
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
	climbed := append(w.climbed[:0], origin)
	for head := 0; head < len(climbed); head++ {
		x := climbed[head]
		for _, y := range t.adj[x].up {
			if relax(x, y, classCustomer) {
				climbed = append(climbed, y)
			}
		}
	}
	// One peering hop from any customer-route holder (or the origin).
	peered := w.peered[:0]
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
	level, below := w.level, w.below
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
	w.climbed, w.peered = climbed, peered
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
// sessions: members export their own and customer routes), grouped by
// origin in index order: each origin's full-export prefixes, then its
// selectively exported ones in prefix order.
//
// A single-homed stub's full-export routes are read off its provider's
// tree (withStub) instead of a walk of its own. Only one tree is alive at
// a time, so memory does not grow with the number of providers: the walks
// run in origin order, each provider's tree — built when its turn comes,
// whether or not it announces anything itself — emits its stubs'
// announcements before the next walk overwrites it, each origin's
// full-export announcements land in one slot of a scratch buffer, and the
// slots are copied out in origin order at the end.
func (t *topology) announcementSet(collectors, members []int) []bgp.Announcement {
	memberList := sortedCopy(members)
	full := make([][]netx.Prefix, len(t.ases))
	stubs := make([][]int, len(t.ases))
	nSelective := 0
	for oi := range t.ases {
		o := &t.ases[oi]
		for _, p := range o.Announced {
			if o.SelectiveExport == nil || o.SelectiveExport[p] == nil {
				full[oi] = append(full[oi], p)
			}
		}
		nSelective += len(o.SelectiveExport)
		if len(full[oi]) > 0 {
			if p, ok := t.singleHomed(oi); ok {
				stubs[p] = append(stubs[p], oi)
			}
		}
	}

	var w walker
	var buf []bgp.Announcement
	slot := make([][2]int, len(t.ases))
	emitFull := func(rt *routeTree, oi int) {
		lo := len(buf)
		for _, p := range full[oi] {
			buf = t.emitVantages(rt, p, collectors, memberList, buf)
		}
		slot[oi] = [2]int{lo, len(buf)}
	}
	for oi := range t.ases {
		_, derived := t.singleHomed(oi)
		own := len(full[oi]) > 0 && !derived
		if !own && len(stubs[oi]) == 0 {
			continue
		}
		rt := w.propagate(t, oi, nil)
		if own {
			emitFull(rt, oi)
		}
		for _, s := range stubs[oi] {
			rt.withStub(s, func() { emitFull(rt, s) })
		}
	}

	// Selective prefixes reach collectors only, at most one path each.
	anns := make([]bgp.Announcement, 0, len(buf)+nSelective*len(collectors))
	for oi := range t.ases {
		anns = append(anns, buf[slot[oi][0]:slot[oi][1]]...)
		o := &t.ases[oi]
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
			rt := w.propagate(t, oi, f)
			// Selectively-announced prefixes are not announced at the IXP
			// route server either (the origin exports them to one provider
			// only) — the naive approach therefore misses them entirely,
			// the paper's §3.2 asymmetric-announcement blind spot.
			anns = t.emitVantages(rt, p, collectors, nil, anns)
		}
	}
	return anns
}

// singleHomed reports whether origin is a single-homed stub — one
// neighbour to climb to, no peers, nothing below, hence no visible sibling
// either — and returns its provider. No AS can route through such a stub,
// so its full-export tree is its provider's, one hop longer (withStub).
func (t *topology) singleHomed(origin int) (provider int, ok bool) {
	a := &t.adj[origin]
	if len(a.up) != 1 || len(a.peers) != 0 || len(a.down) != 0 {
		return -1, false
	}
	return a.up[0], true
}

// withStub runs fn with rt, the full-export tree of stub's provider,
// turned into stub's own full-export tree, and then turns it back.
// propagate(stub, nil) climbs from the stub to its provider alone, which
// then holds a customer route; from there the walk is the provider's own,
// one level deeper, except that the stub refuses the provider route it
// would have taken. So every other AS keeps its class and next hop, and
// each path is the provider's with the stub appended. dist, which only
// the walk reads, is left as the provider's.
func (rt *routeTree) withStub(stub int, fn func()) {
	provider := rt.origin
	stubClass, stubNext := rt.class[stub], rt.next[stub]
	rt.origin = stub
	rt.class[stub], rt.next[stub] = classSelf, -1
	rt.class[provider], rt.next[provider] = classCustomer, int32(stub)
	fn()
	rt.origin = provider
	rt.class[stub], rt.next[stub] = stubClass, stubNext
	rt.class[provider], rt.next[provider] = classSelf, -1
}

// emitVantages appends one prefix's paths at all vantages to anns.
func (t *topology) emitVantages(rt *routeTree, p netx.Prefix, collectors, members []int, anns []bgp.Announcement) []bgp.Announcement {
	add := func(p netx.Prefix, path []bgp.ASN) {
		if path != nil {
			anns = append(anns, bgp.Announcement{Prefix: p, Path: path, Origin: path[len(path)-1]})
		}
	}
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
	return anns
}

// rsExports is a deterministic pseudo-random RS export policy.
func rsExports(member int, p netx.Prefix) bool {
	h := uint32(member)*2654435761 ^ uint32(p.Addr)>>8 ^ uint32(p.Bits)<<20
	h ^= h >> 13
	h *= 0x85ebca6b
	h ^= h >> 16
	return h%100 < 55
}
