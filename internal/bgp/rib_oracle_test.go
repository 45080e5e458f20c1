package bgp_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
	"spoofscope/internal/scenario"
)

// TestRIBMatchesOracle holds the RIB to the map-based oracle
// (oracle_test.go) on 200 seeded random observation streams and, unless
// -short, on the default scenario's MRT. The streams repeat observations,
// give prefixes several origins, announce AS 0, carry lengths outside
// /8../24 and empty paths, and every tenth is long enough that
// AddAnnouncement folds its tail into the table before the first read.
func TestRIBMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		bgp.RequireRIBMatchesOracle(t, fmt.Sprintf("stream %d", i), randomObservations(rng, i%10 == 9), rng)
	}
	if testing.Short() {
		return
	}
	s, err := scenario.Build(scenario.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var mrt bytes.Buffer
	if err := s.WriteMRT(&mrt); err != nil {
		t.Fatal(err)
	}
	bgp.RequireMRTMatchesOracle(t, "default scenario", mrt.Bytes(), rng)
}

// randomObservations draws a stream from few prefixes, origins and paths,
// so repeats and MOAS prefixes are common; a long stream draws from more
// prefixes and runs past the RIB's fold threshold.
func randomObservations(rng *rand.Rand, long bool) []bgp.Announcement {
	n, prefixes := rng.Intn(64), 16
	if long {
		n, prefixes = 8000+rng.Intn(8000), 4000
	}
	obs := make([]bgp.Announcement, 0, n)
	for len(obs) < n {
		if len(obs) > 0 && rng.Intn(4) == 0 {
			obs = append(obs, obs[rng.Intn(len(obs))])
			continue
		}
		k := rng.Intn(prefixes)
		p := netx.PrefixFrom(netx.Addr(uint32(k)<<12), uint8(6+k%21)) // /6../26
		path := make([]bgp.ASN, rng.Intn(4))
		for j := range path {
			path[j] = bgp.ASN(rng.Intn(6)) // AS 0 included
		}
		obs = append(obs, bgp.Announcement{Prefix: p, Path: path})
	}
	return obs
}
