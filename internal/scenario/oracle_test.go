package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"spoofscope/internal/netx"
)

// oraclePropagate is the phase-by-phase propagation that the level-ordered
// walk replaced, kept verbatim but for its name: a FIFO climb, one peering
// hop, then an (n+3)-slot bucket queue whose every level is sorted by ASN,
// with each neighbour list copied and sorted on every visit.
func (t *topology) oraclePropagate(origin int, filter exportFilter) *routeTree {
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

	// Phase 1 — customer routes climb provider chains (BFS, unit weights).
	// Visible org-sibling links provide mutual transit: a sibling adopts
	// the route as if learned from a customer and re-exports it upward,
	// making these internal links broadly visible on AS paths.
	queue := []int{origin}
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		for _, p := range sortedCopy(t.ases[x].Providers) {
			if x == origin && !filter.allows(p) {
				continue
			}
			if rt.class[p] >= classCustomer {
				continue
			}
			rt.class[p] = classCustomer
			rt.dist[p] = rt.dist[x] + 1
			rt.next[p] = int32(x)
			queue = append(queue, p)
		}
		for _, sib := range sortedCopy(t.ases[x].VisibleSiblings) {
			if x == origin && !filter.allows(sib) {
				continue
			}
			if rt.class[sib] >= classCustomer {
				continue
			}
			rt.class[sib] = classCustomer
			rt.dist[sib] = rt.dist[x] + 1
			rt.next[sib] = int32(x)
			queue = append(queue, sib)
		}
	}

	// Phase 2 — one peering hop from any customer-route holder (or the
	// origin itself).
	holders := append([]int(nil), queue...)
	for _, x := range holders {
		for _, q := range sortedCopy(t.ases[x].Peers) {
			if x == origin && !filter.allows(q) {
				continue
			}
			if rt.class[q] >= classPeer {
				continue
			}
			rt.class[q] = classPeer
			rt.dist[q] = rt.dist[x] + 1
			rt.next[q] = int32(x)
		}
	}

	// Phase 3 — provider routes descend customer links from every route
	// holder, in distance order (bucket queue; all edges weigh 1).
	maxDist := int32(n + 1)
	buckets := make([][]int, maxDist+2)
	for i := 0; i < n; i++ {
		if rt.class[i] != classNone {
			d := rt.dist[i]
			if d > maxDist {
				d = maxDist
			}
			buckets[d] = append(buckets[d], i)
		}
	}
	for d := int32(0); d <= maxDist; d++ {
		// Deterministic processing order within a distance level.
		sort.Slice(buckets[d], func(i, j int) bool {
			return t.ases[buckets[d][i]].ASN < t.ases[buckets[d][j]].ASN
		})
		for _, x := range buckets[d] {
			if rt.dist[x] != d {
				continue // superseded (only possible for stale entries)
			}
			down := append(sortedCopy(t.ases[x].Customers), sortedCopy(t.ases[x].VisibleSiblings)...)
			for _, c := range down {
				if x == origin && !filter.allows(c) {
					continue
				}
				if rt.class[c] != classNone {
					continue
				}
				rt.class[c] = classProvider
				rt.dist[c] = d + 1
				rt.next[c] = int32(x)
				if d+1 <= maxDist {
					buckets[d+1] = append(buckets[d+1], c)
				}
			}
		}
	}
	return rt
}

// TestPropagateMatchesOracle requires propagate to produce the oracle's
// routing tree — class, distance and next hop at every AS — for every
// origin under four kinds of export filter: none (nil), the empty filter
// (the origin exports to nobody), every selective-export filter the
// scenario draws, and each single-provider filter (the origin exports to
// one of its providers only).
func TestPropagateMatchesOracle(t *testing.T) {
	var cfgs []Config
	for seed := int64(1); seed <= 6; seed++ {
		c := SmallConfig()
		c.Seed = seed
		cfgs = append(cfgs, c)
	}
	if !testing.Short() {
		cfgs = append(cfgs, DefaultConfig())
	}
	for _, cfg := range cfgs {
		t.Run(fmt.Sprintf("%d-ases-seed%d", cfg.NumTier1+cfg.NumTransit+cfg.NumStub, cfg.Seed), func(t *testing.T) {
			s, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			topo := s.topo
			trees := 0
			check := func(origin int, f exportFilter, kind string) {
				t.Helper()
				got, want := topo.propagate(origin, f), topo.oraclePropagate(origin, f)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("origin %d (%s), %s filter %v: tree differs from the oracle", origin, topo.ases[origin].ASN, kind, f)
				}
				trees++
			}
			for o := range topo.ases {
				a := &topo.ases[o]
				check(o, nil, "nil")
				check(o, exportFilter{}, "empty")
				for _, only := range a.SelectiveExport {
					f := exportFilter{}
					for _, p := range only {
						f[p] = true
					}
					check(o, f, "selective")
				}
				for _, p := range a.Providers {
					check(o, exportFilter{p: true}, "single-provider")
				}
			}
			t.Logf("%d routing trees match", trees)
		})
	}
}

// TestSingleHomedRoutesMatchPropagate checks the derivation announcementSet
// uses for single-homed stubs: the provider's tree, turned into the stub's
// by withStub, must give every AS the class and next hop that the stub's
// own walk gives it, and so the same announcements at every vantage —
// every AS at the small scale, the collectors and members at the default
// one — and withStub must hand the provider's tree back unchanged.
func TestSingleHomedRoutesMatchPropagate(t *testing.T) {
	var cfgs []Config
	for seed := int64(1); seed <= 4; seed++ {
		c := SmallConfig()
		c.Seed = seed
		cfgs = append(cfgs, c)
	}
	cfgs = append(cfgs, DefaultConfig())
	for _, cfg := range cfgs {
		n := cfg.NumTier1 + cfg.NumTransit + cfg.NumStub
		t.Run(fmt.Sprintf("%d-ases-seed%d", n, cfg.Seed), func(t *testing.T) {
			s, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			topo := s.topo
			collectors, members := s.Collectors, sortedCopy(s.memberIndices())
			if n < 1000 {
				collectors = make([]int, n)
				for i := range collectors {
					collectors[i] = i
				}
				members = collectors
			}
			stubs := 0
			for stub := range topo.ases {
				provider, ok := topo.singleHomed(stub)
				if !ok {
					continue
				}
				stubs++
				want := topo.propagate(stub, nil)
				rt := topo.propagate(provider, nil)
				before := topo.propagate(provider, nil)
				prefixes := topo.ases[stub].Announced
				if len(prefixes) == 0 {
					prefixes = []netx.Prefix{netx.MustParsePrefix("192.0.2.0/24")}
				}
				rt.withStub(stub, func() {
					if rt.origin != stub || !reflect.DeepEqual(rt.class, want.class) || !reflect.DeepEqual(rt.next, want.next) {
						t.Fatalf("stub %s under %s: derived tree differs from its own walk", topo.ases[stub].ASN, topo.ases[provider].ASN)
					}
					for _, p := range prefixes {
						got := topo.emitVantages(rt, p, collectors, members, nil)
						if exp := topo.emitVantages(want, p, collectors, members, nil); !reflect.DeepEqual(got, exp) {
							t.Fatalf("stub %s, %s: derived announcements %v, its own walk's %v", topo.ases[stub].ASN, p, got, exp)
						}
					}
				})
				if !reflect.DeepEqual(rt, before) {
					t.Fatalf("withStub(%s) left %s's tree changed", topo.ases[stub].ASN, topo.ases[provider].ASN)
				}
			}
			if stubs == 0 {
				t.Fatal("no single-homed stub")
			}
			t.Logf("%d single-homed stubs of %d ASes", stubs, n)
		})
	}
}

// TestMRTPinned pins the generator's whole BGP view — topology, routing
// trees, vantage selection and the MRT encoding — at the small and default
// scales. A change to any of them moves the digest; the paper-scale digest
// is pinned in TestPaperScaleSmoke, which already builds that scenario.
func TestMRTPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"small", SmallConfig(), "043b8370dde177f8c51cbf7162008607fe157e8f222a40c95671f8f16b812890"},
		{"default", DefaultConfig(), "dbca247290e5d34a61d75954bb77adb8102a90ea4c50decc44a42536e565d991"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := s.WriteMRT(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("sha256(WriteMRT) = %s, want %s", got, tc.want)
			}
		})
	}
}
