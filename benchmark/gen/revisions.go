package gen

import (
	"math/rand"
	"sort"

	"spoofscope/internal/bgp"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
)

// The rebuild tier a revision must land in, spelled as core.BuildReuse
// prints it.
const (
	TierCold           = "cold"
	TierReusedClosures = "reused-closures"
	TierReusedPipeline = "reused-pipeline"
)

// Revision is one RIB snapshot handed to the runtime, with the tier its
// rebuild must report.
type Revision struct {
	RIB  *bgp.RIB
	Tier string
}

// Sources returns the sorted distinct source addresses of a trace.
func Sources(flows []ipfix.Flow) []netx.Addr {
	set := make(map[netx.Addr]struct{}, len(flows)/4)
	for i := range flows {
		set[flows[i].SrcAddr] = struct{}{}
	}
	out := make([]netx.Addr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// covers reports whether any address of the sorted set lies in p.
func covers(srcs []netx.Addr, p netx.Prefix) bool {
	i := sort.Search(len(srcs), func(i int) bool { return srcs[i] >= p.First() })
	return i < len(srcs) && srcs[i] <= p.Last()
}

// deltaGroups is the number of announcement-only revisions per half cycle;
// each renumbers deltaShare of the table's prefixes.
const (
	deltaGroups = 3
	deltaShare  = 0.01
)

// RevisionCycle derives a deterministic cycle of ten RIB revisions from a
// table: one AS-path change (a cold rebuild), three announcement-only
// deltas that each renumber about 1% of the prefixes while keeping every
// path (rebuilds that reuse the closures), and one identical resend (a
// rebuild that reuses the whole pipeline); then the same five undone in
// reverse, which ends on base's announcement set, so the cycle can repeat.
//
// srcs are the trace's sorted distinct sources. Only prefixes that hold
// none of them are renumbered or re-pathed, and only into space that holds
// none either, so a renumbering cannot move a trace flow to another origin.
// Whether the path change leaves every verdict alone is for the caller to
// check against its reference; altPath selects which candidate announcement
// is re-pathed, so a caller can move on to the next one.
func RevisionCycle(base *bgp.RIB, srcs []netx.Addr, seed int64, altPath int) []Revision {
	anns := base.Announcements()
	rng := rand.New(rand.NewSource(seed))

	existing := make(map[netx.Prefix]bool)
	var free []netx.Prefix // prefixes no trace flow is sourced from
	for _, a := range anns {
		if existing[a.Prefix] {
			continue
		}
		existing[a.Prefix] = true
		if !covers(srcs, a.Prefix) {
			free = append(free, a.Prefix)
		}
	}
	sort.Slice(free, func(i, j int) bool { return free[i].Compare(free[j]) < 0 })
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })

	per := int(deltaShare*float64(len(existing)) + 0.5)
	if max := len(free) / (deltaGroups + 1); per > max {
		per = max
	}
	if per < 1 {
		per = 1
	}
	// group[p] is the delta (1..deltaGroups) from which p is renumbered to
	// moved[p]: a fresh /24 in space no trace flow is sourced from.
	group := make(map[netx.Prefix]int)
	moved := make(map[netx.Prefix]netx.Prefix)
	for g := 1; g <= deltaGroups; g++ {
		for _, p := range free[(g-1)*per : g*per] {
			for {
				q := netx.PrefixFrom(netx.Addr(uint32(1+rng.Intn(223))<<24|uint32(rng.Intn(1<<16))<<8), 24)
				if !existing[q] && !covers(srcs, q) {
					existing[q] = true
					group[p], moved[p] = g, q
					break
				}
			}
		}
	}

	// The re-pathed announcement: the altPath-th one, in table order, of a
	// free prefix outside every delta group with a path long enough to lose
	// its first hop (the view of a vantage one AS closer to the origin).
	repath := -1
	for i, a := range anns {
		if len(a.Path) >= 3 && group[a.Prefix] == 0 && !covers(srcs, a.Prefix) {
			if altPath == 0 {
				repath = i
				break
			}
			altPath--
		}
	}

	build := func(alt bool, delta int) *bgp.RIB {
		r := bgp.NewRIB()
		for i, a := range anns {
			p, path := a.Prefix, a.Path
			if g := group[p]; g != 0 && g <= delta {
				p = moved[p]
			}
			if alt && i == repath {
				path = path[1:]
			}
			r.AddAnnouncement(p, path)
		}
		return r
	}

	var cycle []Revision
	half := func(alt bool, deltas []int, last *bgp.RIB) {
		for i, d := range deltas {
			rev := Revision{Tier: TierReusedClosures}
			if i == 0 {
				rev.Tier = TierCold
			}
			if i == len(deltas)-1 && last != nil {
				rev.RIB = last
			} else {
				rev.RIB = build(alt, d)
			}
			cycle = append(cycle, rev)
		}
		cycle = append(cycle, Revision{RIB: cycle[len(cycle)-1].RIB, Tier: TierReusedPipeline})
	}
	half(true, []int{0, 1, 2, 3}, nil)
	half(false, []int{3, 2, 1, 0}, base)
	return cycle
}
