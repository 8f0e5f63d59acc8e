package adaptive

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/population"
	"repro/internal/study"
)

// testSpecs builds a small grid: easy cells (large quality gap, decidable in
// a round or two) plus a subtle one that needs more budget. Each cell has
// its own derived seed, mirroring how pop-sweep seeds its steps.
func testSpecs(participants int) []CellSpec {
	gaps := []float64{2.5, 1.8, 1.08}
	specs := make([]CellSpec, 0, len(gaps))
	for i, g := range gaps {
		base := 0.9 + 0.2*float64(i)
		left := metrics.Report{SI: time.Duration(base * g * float64(time.Second)), FVC: time.Duration(base * g * 0.6 * float64(time.Second)), Complete: true}
		right := metrics.Report{SI: time.Duration(base * float64(time.Second)), FVC: time.Duration(base * 0.6 * float64(time.Second)), Complete: true}
		label := fmt.Sprintf("cell-%d", i)
		specs = append(specs, CellSpec{
			Label: label,
			Cells: []population.ABCell{{Label: label, Left: right, Right: left, AOnLeft: true}},
			Config: population.Config{
				Group:        study.Microworker,
				Participants: participants,
				Shards:       16,
				Seed:         core.DeriveSeed(42, label),
			},
		})
	}
	return specs
}

// TestAdaptiveStopsEarlyAndSavesVotes: the easy cells must lock their
// decisions well inside the budget, and every reported outcome must be
// consistent with the deciding interval.
func TestAdaptiveStopsEarlyAndSavesVotes(t *testing.T) {
	res, err := Run(context.Background(), testSpecs(8000), Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 1 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
	stopped := 0
	for i, c := range res.Cells {
		if c.Outcome == Undecided {
			t.Fatalf("cell %d undecided in a final result", i)
		}
		if c.ShardsRun < c.ShardsTotal {
			stopped++
			if c.Outcome == Exhausted {
				t.Fatalf("cell %d stopped early yet reports Exhausted", i)
			}
		}
		switch c.Outcome {
		case Noticeable:
			if c.Noticed.Lo <= 0.5 {
				t.Fatalf("cell %d Noticeable with interval lo %.4f", i, c.Noticed.Lo)
			}
		case NotNoticeable:
			if c.Noticed.Hi >= 0.5 {
				t.Fatalf("cell %d NotNoticeable with interval hi %.4f", i, c.Noticed.Hi)
			}
		}
		if c.Votes != c.Stats.N() {
			t.Fatalf("cell %d vote counter %d != aggregate N %d", i, c.Votes, c.Stats.N())
		}
	}
	if stopped == 0 {
		t.Fatal("no cell stopped early on a grid with 2.5x quality gaps")
	}
	if res.Votes >= res.VotesBudget {
		t.Fatalf("votes %d >= budget %d: nothing saved", res.Votes, res.VotesBudget)
	}
	if res.VotesSaved() != res.VotesBudget-res.Votes {
		t.Fatalf("VotesSaved accounting broken")
	}
}

// TestAdaptiveByteIdenticalAcrossWorkers is the determinism property the
// whole subsystem is built around: worker count {1, 4, NumCPU} must not
// change a single bit of the result — decisions included.
func TestAdaptiveByteIdenticalAcrossWorkers(t *testing.T) {
	workerCounts := []int{1, 4, runtime.NumCPU()}
	var base Result
	var baseRepr string
	for i, w := range workerCounts {
		res, err := Run(context.Background(), testSpecs(4000), Config{Workers: w}, nil)
		if err != nil {
			t.Fatal(err)
		}
		repr := fmt.Sprintf("%#v", res)
		if i == 0 {
			base, baseRepr = res, repr
			continue
		}
		if !reflect.DeepEqual(res, base) {
			t.Fatalf("workers=%d: result differs from workers=%d", w, workerCounts[0])
		}
		if repr != baseRepr {
			t.Fatalf("workers=%d: rendering differs from workers=%d", w, workerCounts[0])
		}
	}
}

// TestAdaptiveMatchesTruncatedFullRun: an early-stopped cell's aggregate is
// bit-identical to folding the same shard prefix of a full run — the
// truncation invariant, observed through the engine.
func TestAdaptiveMatchesTruncatedFullRun(t *testing.T) {
	specs := testSpecs(4000)
	res, err := Run(context.Background(), specs, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Cells {
		spec := specs[i]
		states, err := population.RunABRange(context.Background(), spec.Cells, spec.Config, population.ShardRange{Lo: 0, Hi: c.ShardsRun})
		if err != nil {
			t.Fatal(err)
		}
		acc, err := population.NewABAccumulator(spec.Cells, spec.Config)
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.Absorb(states); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*acc.Cell(0), c.Stats) {
			t.Fatalf("cell %d: adaptive aggregate differs from truncated full run at %d shards", i, c.ShardsRun)
		}
	}
}

// TestAdaptiveExhaustsDeadOnThresholdCell: pin the threshold at a cell's
// own observed share so no decision can lock; the cell must drain its full
// budget and report Exhausted with its fixed-budget point estimate.
func TestAdaptiveExhaustsDeadOnThresholdCell(t *testing.T) {
	specs := testSpecs(1200)[2:3] // the subtle cell only
	first, err := Run(context.Background(), specs, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	noticed := first.Cells[0].Stats.Noticed()
	share := noticed.Share()
	if share <= 0 || share >= 1 {
		t.Fatalf("degenerate share %v", share)
	}
	res, err := Run(context.Background(), specs, Config{Threshold: share}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	if c.Outcome != Exhausted {
		t.Fatalf("outcome %v with threshold pinned at the observed share %.4f, want Exhausted", c.Outcome, share)
	}
	if c.ShardsRun != c.ShardsTotal {
		t.Fatalf("exhausted cell ran %d/%d shards", c.ShardsRun, c.ShardsTotal)
	}
	// Exhausted cells report exactly what a fixed-budget run reports.
	batch, err := population.RunAB(context.Background(), specs[0].Cells, specs[0].Config)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Stats, batch.Cells[0]) {
		t.Fatal("exhausted cell aggregate differs from the fixed-budget run")
	}
}

func TestAdaptiveValidation(t *testing.T) {
	if _, err := Run(context.Background(), nil, Config{}, nil); err == nil {
		t.Fatal("empty grid must fail")
	}
	bad := testSpecs(1000)[:1]
	bad[0].Cells = append(bad[0].Cells, bad[0].Cells[0])
	if _, err := Run(context.Background(), bad, Config{}, nil); err == nil {
		t.Fatal("multi-cell spec must fail")
	}
	if _, err := Run(context.Background(), testSpecs(1000), Config{Alpha: 1.5}, nil); err == nil {
		t.Fatal("alpha outside (0,1) must fail")
	}
	if _, err := Run(context.Background(), testSpecs(1000), Config{Threshold: 2}, nil); err == nil {
		t.Fatal("threshold outside (0,1) must fail")
	}
	failing := func(context.Context, int, population.ShardRange) ([]population.ABShardState, error) {
		return nil, fmt.Errorf("boom")
	}
	if _, err := Run(context.Background(), testSpecs(1000), Config{}, failing); err == nil {
		t.Fatal("grant errors must propagate")
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{
		Undecided: "undecided", Noticeable: "noticeable",
		NotNoticeable: "not-noticeable", Exhausted: "exhausted",
	} {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
}
