package core

import (
	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
)

// nodeAlloc is an Aggregator's private node allocator. Every inner node the
// aggregate hangs off its top-level maps — member records with their origin
// maps, fan-in destinations and their multi-source sets, /8 bins, series
// backing arrays, NTP pair maps — is handed out here and nowhere else. First
// use is carved from fixed-size slabs (the checkpoint decoder's idiom), so a
// growing aggregate pays one allocation per slab rather than per key. Reset
// empties every node handed out since the last one and rewinds, so refilling
// a recycled aggregator — a drain worker's spill shard, fold after fold —
// allocates nothing once it has reached the shard's own peak.
//
// Nodes come back in the order they first went out. Flows arrive clustered,
// so the key that asks n-th in one episode is usually the key that asked
// n-th in the last, and gets the map that already grew to its size: recycled
// capacity lands where it is needed instead of being regrown under a
// different key. Slabs and maps are only ever the allocator's own — records
// a checkpoint decode put in the top-level maps are simply dropped by Reset —
// and the series arrays and bins it picks up from the maps are a dozen at
// most, so retention is this aggregator's own high-water mark and dies with
// it.
type nodeAlloc struct {
	members slabs[MemberStats]
	dsts    slabs[DstStats]
	srcs    lane[map[netx.Addr]struct{}]
	pairs   lane[map[netx.Addr]uint64]
	// series parks each class's backing array under its class, len 0.
	series [numTrafficClasses][]uint64
	// bins are all one size, so a plain free list of zeroed arrays does.
	bins []*[256]uint64
}

// Slab lengths: 4 KB each, so the slack an aggregator carries is noise
// beside one port page, and a spoofed-destination flood still allocates two
// orders of magnitude less often than per key. One node short of the round
// number on purpose: Go prefixes a pointer-carrying object over 512 B with an
// 8-byte header, and 128 × 32 B plus that lands in the 4864-byte size class —
// 19% of every slab wasted (+170 KB on the typical week's 25K destinations).
const (
	memberSlabLen = 21  // × 192 B = 4032
	dstSlabLen    = 127 // × 32 B = 4064
)

// srcsKeepMax bounds the source sets Reset keeps: clearing a map costs its
// capacity, not its length, so one flood-sized set handed to an ordinary
// two-source destination would tax every later Reset. Larger sets go back to
// the collector.
const srcsKeepMax = 1024

// slabs hands out *T from fixed-length slabs, always in the same order:
// through all[0], then all[1], and so on. all[:open] have been started since
// the last rewind; rest is what the last of them has left.
type slabs[T any] struct {
	all  [][]T
	open int
	rest []T
}

func (s *slabs[T]) next(slabLen int) *T {
	if len(s.rest) == 0 {
		if s.open == len(s.all) {
			s.all = append(s.all, make([]T, slabLen))
		}
		s.rest = s.all[s.open]
		s.open++
	}
	x := &s.rest[0]
	s.rest = s.rest[1:]
	return x
}

// rewind passes every node of every started slab to empty — the few the last
// slab has not handed out yet are zero already, and empty leaves them so —
// then starts over from the first.
func (s *slabs[T]) rewind(empty func(*T)) {
	for _, slab := range s.all[:s.open] {
		for i := range slab {
			empty(&slab[i])
		}
	}
	s.open, s.rest = 0, nil
}

// lane is the same hand-out order for nodes that cannot live in a slab
// (maps): every one handed out so far, the first used of them live. A zero
// slot is one Reset declined to keep.
type lane[T any] struct {
	all  []T
	used int
}

// next returns the slot to hand out; the caller fills it when it is zero.
func (l *lane[T]) next() *T {
	if l.used == len(l.all) {
		var zero T
		l.all = append(l.all, zero)
	}
	l.used++
	return &l.all[l.used-1]
}

// newMember returns an empty member record for port. origins sizes a fresh
// origin map (Merge knows the count it is about to copy); a recycled record
// keeps the map it had.
func (n *nodeAlloc) newMember(port uint32, origins int) *MemberStats {
	ms := n.members.next(memberSlabLen)
	if ms.InvalidOrigins == nil {
		ms.InvalidOrigins = make(map[bgp.ASN]uint64, origins)
	}
	ms.Port = port
	return ms
}

// newDst returns a zero DstStats.
func (n *nodeAlloc) newDst() *DstStats { return n.dsts.next(dstSlabLen) }

// newSrcs returns an empty source set for a destination's second source.
func (n *nodeAlloc) newSrcs() map[netx.Addr]struct{} {
	m := n.srcs.next()
	if *m == nil {
		*m = make(map[netx.Addr]struct{}, 2)
	}
	return *m
}

// newPairs returns an empty NTP pair map; size hints a fresh one.
func (n *nodeAlloc) newPairs(size int) map[netx.Addr]uint64 {
	m := n.pairs.next()
	if *m == nil {
		*m = make(map[netx.Addr]uint64, size)
	}
	return *m
}

// new8 returns a zeroed /8 bin array.
func (n *nodeAlloc) new8() *[256]uint64 {
	if k := len(n.bins); k > 0 {
		b := n.bins[k-1]
		n.bins = n.bins[:k-1]
		return b
	}
	return new([256]uint64)
}

// newSeries returns an empty series for class c to append to: the backing
// array Reset parked for it, or nil.
func (n *nodeAlloc) newSeries(c TrafficClass) []uint64 {
	if c < 0 || c >= numTrafficClasses {
		return nil
	}
	s := n.series[c]
	n.series[c] = nil
	return s
}

// recycleNodes empties every inner node for reuse. Reset calls it before
// clearing the top-level maps: only the values are kept, so which keys are
// present stays exactly what the flows since the Reset make it.
func (a *Aggregator) recycleNodes() {
	n := &a.nodes
	n.members.rewind(func(ms *MemberStats) {
		origins := ms.InvalidOrigins
		clear(origins)
		*ms = MemberStats{InvalidOrigins: origins}
	})
	// A recycled destination is the zero value, Srcs == nil included: its
	// source set went out through the srcs lane and comes back through it.
	n.dsts.rewind(func(ds *DstStats) { *ds = DstStats{} })
	for i, m := range n.srcs.all[:n.srcs.used] {
		if len(m) > srcsKeepMax {
			n.srcs.all[i] = nil
		} else {
			clear(m)
		}
	}
	n.srcs.used = 0
	for _, m := range n.pairs.all[:n.pairs.used] {
		clear(m)
	}
	n.pairs.used = 0
	for c, s := range a.Series {
		if c >= 0 && c < numTrafficClasses {
			n.series[c] = s[:0]
		}
	}
	for _, bins := range [2]map[TrafficClass]*[256]uint64{a.Slash8Src, a.Slash8Dst} {
		for _, b := range bins {
			*b = [256]uint64{}
			n.bins = append(n.bins, b)
		}
	}
}
