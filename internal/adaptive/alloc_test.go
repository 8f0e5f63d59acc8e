package adaptive

import (
	"context"
	"testing"
)

// adaptiveAllocs measures one sequential adaptive run over the population
// size. The engine's round loop sits ON TOP of the PR 6 zero-alloc shard
// loop: its own work is per-round bookkeeping (grants, looks, absorbs), so
// like the engine beneath it, its allocation count must not scale with the
// number of participants. To compare like with like, the threshold is
// pinned at the cell's own observed share so the run exhausts its full
// budget: the round structure is then a function of the shard count alone,
// identical at every population size.
func adaptiveAllocs(t *testing.T, participants int) float64 {
	t.Helper()
	specs := testSpecs(participants)[2:3]
	probe, err := Run(context.Background(), specs, Config{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	noticed := probe.Cells[0].Stats.Noticed()
	cfg := Config{Workers: 1, Threshold: noticed.Share()}
	return testing.AllocsPerRun(3, func() {
		res, err := Run(context.Background(), specs, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cells[0].Outcome != Exhausted {
			t.Fatalf("gate run decided (%v); the round structure is no longer size-independent", res.Cells[0].Outcome)
		}
	})
}

// TestAdaptiveAllocsIndependentOfPopulation: growing the population 8x must
// not change the allocation count at all — the round loop adds zero
// allocations per participant over the zero-alloc population baseline.
func TestAdaptiveAllocsIndependentOfPopulation(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only exact without it")
	}
	small, large := adaptiveAllocs(t, 1_000), adaptiveAllocs(t, 8_000)
	if small != large {
		t.Errorf("adaptive run allocs scale with population: %.0f at 1k participants, %.0f at 8k", small, large)
	}
	// Absolute ceiling on the fixed per-run setup: accumulators, seed
	// tables, per-round grant slices and shard-state slices. Loose — a
	// per-participant regression blows past it by orders of magnitude.
	if large > 600 {
		t.Errorf("adaptive fixed setup allocates %.0f times, want <= 600", large)
	}
}
