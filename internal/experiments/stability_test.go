package experiments

import (
	"testing"

	"spoofscope/internal/core"
)

// TestShapeStabilityAcrossSeeds rebuilds the small environment under
// different seeds and checks that the headline paper shapes are properties
// of the system, not artifacts of one random draw.
func TestShapeStabilityAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("three environment builds; run without -short")
	}
	for _, seed := range []int64{2, 5, 11} {
		seed := seed
		t.Run(string(rune('a'+seed)), func(t *testing.T) {
			opts := SmallOptions()
			opts.Scenario.Seed = seed
			env, err := NewEnv(opts)
			if err != nil {
				t.Fatal(err)
			}
			r := Table1(env)
			naive := table1Row(t, r, "invalid-naive")
			cc := table1Row(t, r, "invalid-cc")
			full := table1Row(t, r, "invalid-full")
			bogon := table1Row(t, r, "bogon")
			if !(naive.Packets >= cc.Packets && cc.Packets >= full.Packets) {
				t.Errorf("seed %d: volume ordering violated: %d/%d/%d",
					seed, naive.Packets, cc.Packets, full.Packets)
			}
			if bogon.MemberFrac < 0.45 {
				t.Errorf("seed %d: bogon members = %v", seed, bogon.MemberFrac)
			}
			// Regular dominates.
			if env.Agg.Total[core.TCRegular].Packets < env.Agg.GrandTotal.Packets/2 {
				t.Errorf("seed %d: regular does not dominate", seed)
			}
			// Containment holds.
			cont := ConeContainment(env)
			if cont.NaiveViolets != 0 || cont.CCViolets != 0 {
				t.Errorf("seed %d: containment violated: %+v", seed, cont)
			}
		})
	}
}
