package spoofscope

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"spoofscope/internal/experiments"
	"spoofscope/internal/scenario"
)

// TestPaperScaleSmoke builds the full paper-scale environment (≈6.4K ASes,
// 700 members, four weeks of traffic) and checks the headline Table 1
// member-participation numbers against the paper's. ~12s; skipped with
// -short.
func TestPaperScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale environment takes ~12s; run without -short")
	}
	opts := experiments.DefaultOptions()
	opts.Scenario = scenario.PaperScaleConfig()
	env, err := experiments.NewEnv(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(env.Scenario.Members); got != 700 {
		t.Fatalf("members = %d", got)
	}
	if len(env.Flows) < 1_000_000 {
		t.Fatalf("only %d flows at paper scale", len(env.Flows))
	}
	// The generator's BGP view at paper scale is pinned byte for byte, as
	// internal/scenario pins it at the small and default scales.
	h := sha256.New()
	if err := env.Scenario.WriteMRT(h); err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "fa8111ab4c695e0cd9bf588f3c69c598b08fedccbbb33bd9463828c99030336b"; got != want {
		t.Errorf("paper-scale sha256(WriteMRT) = %s, want %s", got, want)
	}

	r := experiments.Table1(env)
	row := func(name string) *experiments.Table1Row {
		for i := range r.Rows {
			if r.Rows[i].Class == name {
				return &r.Rows[i]
			}
		}
		t.Fatalf("missing row %s", name)
		return nil
	}
	// Member participation at paper scale lands close to the paper's
	// values (bogon 72%, unrouted 52%, invalid FULL 54%).
	if f := row("bogon").MemberFrac; f < 0.60 || f > 0.80 {
		t.Errorf("bogon member fraction = %v (paper 0.72)", f)
	}
	if f := row("unrouted").MemberFrac; f < 0.40 || f > 0.62 {
		t.Errorf("unrouted member fraction = %v (paper 0.52)", f)
	}
	if f := row("invalid-full").MemberFrac; f < 0.45 || f > 0.75 {
		t.Errorf("invalid-full member fraction = %v (paper 0.54)", f)
	}
	// Volume ordering.
	if !(row("invalid-naive").Packets >= row("invalid-cc").Packets &&
		row("invalid-cc").Packets >= row("invalid-full").Packets) {
		t.Error("Table 1 packet ordering violated at paper scale")
	}
	// Bogon/unrouted volumes stay far below invalid's.
	if row("bogon").PacketFrac > 0.05 || row("unrouted").PacketFrac > 0.05 {
		t.Error("bogon/unrouted volumes too large at paper scale")
	}
	// The full-cone inflation artifact exists (some ASes valid for nearly
	// everything).
	f2 := experiments.Figure2(env)
	if f2.FullTableASes == 0 {
		t.Error("no full-table ASes at paper scale")
	}
}
