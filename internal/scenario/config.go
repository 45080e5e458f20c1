// Package scenario synthesizes the measurement environment of the paper:
// an Internet-like AS topology with valley-free routing, BGP announcements
// observed at route collectors and an IXP route server, address allocation
// with deliberately unrouted space, multi-AS organizations with hidden
// internal links, IXP members with realistic business types and filtering
// policies, and the ground truth needed by the traffic generator and the
// evaluation harness.
//
// Everything is deterministic given Config.Seed.
package scenario

import (
	"fmt"
	"time"
)

// Config parameterizes scenario synthesis. The zero value is unusable; use
// DefaultConfig, SmallConfig, or PaperScaleConfig as starting points.
type Config struct {
	Seed int64

	// Topology sizes.
	NumTier1   int // tier-1 clique
	NumTransit int // mid-tier transit providers
	NumStub    int // edge networks

	// NumMembers is the number of IXP member ASes (drawn mostly from
	// transit and stub tiers, like real IXP membership).
	NumMembers int

	// NumCollectorPeers is the number of route-collector vantage ASes
	// (RIPE RIS / RouteViews style peers).
	NumCollectorPeers int

	// MultiASOrgFraction is the fraction of transit ASes that belong to an
	// organization owning additional sibling ASes whose internal links are
	// invisible in BGP.
	MultiASOrgFraction float64

	// SelectiveAnnounceFraction is the fraction of multihomed ASes that
	// announce some prefix to only one of their providers while still
	// sending traffic through the others (the paper's §4.4 asymmetry).
	SelectiveAnnounceFraction float64

	// HeldSpaceFraction is the probability that an AS keeps an extra,
	// allocated-but-unannounced prefix (feeding the Unrouted class).
	HeldSpaceFraction float64

	// Traffic window.
	Start    time.Time
	Duration time.Duration

	// SamplingRate is the 1-in-N packet sampling of the vantage point.
	SamplingRate int
}

// DefaultConfig is a medium scenario: large enough for stable statistics,
// small enough for tests and benchmarks (a few seconds end to end).
func DefaultConfig() Config {
	return Config{
		Seed:                      1,
		NumTier1:                  6,
		NumTransit:                120,
		NumStub:                   1400,
		NumMembers:                220,
		NumCollectorPeers:         12,
		MultiASOrgFraction:        0.12,
		SelectiveAnnounceFraction: 0.30,
		HeldSpaceFraction:         0.35,
		Start:                     time.Date(2017, 2, 5, 0, 0, 0, 0, time.UTC),
		Duration:                  7 * 24 * time.Hour,
		SamplingRate:              10000,
	}
}

// SmallConfig is a fast scenario for unit tests.
func SmallConfig() Config {
	c := DefaultConfig()
	c.NumTier1 = 4
	c.NumTransit = 25
	c.NumStub = 220
	c.NumMembers = 60
	c.NumCollectorPeers = 6
	c.Duration = 24 * time.Hour
	return c
}

// PaperScaleConfig approaches the paper's environment: ~700 members, about
// 6,400 ASes and four weeks of traffic. Building it takes under a second
// (BenchmarkScenarioBuild/paper reads about 0.6 s/op on a 2-vCPU host); it
// is meant for cmd/experiments and the paper-scale tests, not unit tests.
func PaperScaleConfig() Config {
	c := DefaultConfig()
	c.NumTier1 = 8
	c.NumTransit = 400
	c.NumStub = 6000
	c.NumMembers = 700
	c.NumCollectorPeers = 20
	c.Duration = 28 * 24 * time.Hour
	return c
}

// Validate reports configuration errors early.
func (c Config) Validate() error {
	switch {
	case c.NumTier1 < 2:
		return fmt.Errorf("scenario: NumTier1 = %d, need >= 2", c.NumTier1)
	case c.NumTransit < 2:
		return fmt.Errorf("scenario: NumTransit = %d, need >= 2", c.NumTransit)
	case 10*c.NumTier1 >= 1000:
		// Tier-1 ASNs are 10, 20, 30, …: the last one must stay below
		// the transit range at 1000.
		return fmt.Errorf("scenario: NumTier1 = %d, need <= 99 (tier-1 ASNs would reach the transit range)", c.NumTier1)
	case 1000+c.NumTransit > 10000:
		return fmt.Errorf("scenario: NumTransit = %d, need <= 9000 (transit ASNs would reach the stub range)", c.NumTransit)
	case c.NumStub < c.NumMembers/2:
		return fmt.Errorf("scenario: NumStub = %d too small for %d members", c.NumStub, c.NumMembers)
	case c.NumMembers < 4:
		return fmt.Errorf("scenario: NumMembers = %d, need >= 4", c.NumMembers)
	case c.NumCollectorPeers < 1:
		return fmt.Errorf("scenario: NumCollectorPeers = %d, need >= 1", c.NumCollectorPeers)
	case c.SamplingRate < 1:
		return fmt.Errorf("scenario: SamplingRate = %d, need >= 1", c.SamplingRate)
	case c.Duration < time.Hour:
		return fmt.Errorf("scenario: Duration = %v, need >= 1h", c.Duration)
	}
	return nil
}
