package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/study"
)

// popTestbed builds one shared prewarmed testbed for the pop experiments at
// quick scale (the acceptance-criteria configuration).
func popTestbed(t *testing.T) *core.Testbed {
	t.Helper()
	tb := core.NewTestbed(core.QuickScale(), 1)
	nets, prots := popABExp{}.Conditions()
	if err := tb.Prewarm(context.Background(), nets, prots); err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestPopRatingMillionVotes pins the tentpole acceptance criterion: a
// quick-scale pop-rating run streams over a million votes, with aggregate
// state sized by the stimulus grid rather than the population.
func TestPopRatingMillionVotes(t *testing.T) {
	if testing.Short() {
		t.Skip("population-scale run")
	}
	tb := popTestbed(t)
	res, err := popRatingRun(context.Background(), tb, Options{Scale: tb.Scale, Seed: core.DeriveSeed(1, "pop-rating")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Votes < 1_000_000 {
		t.Fatalf("pop-rating streamed %d votes, want >= 1M", res.Votes)
	}
	wantRows := len(study.Environments()) * len(simnet.ScenarioNetworks()) * len(study.RatingProtocols())
	if len(res.Rows) != wantRows {
		t.Fatalf("rows %d, want %d (aggregation is O(cells))", len(res.Rows), wantRows)
	}
	// The funnel must match the population and the survivors must vote.
	if !strings.Contains(res.Funnel, "120000") {
		t.Fatalf("funnel does not start at the population: %s", res.Funnel)
	}
	// Scenario shape: fast-fiber out-rates lossy-satellite in every
	// environment — the library stretches the rating range the paper saw.
	for _, env := range study.Environments() {
		var fiber, sat float64
		for _, row := range res.Rows {
			if row.Environment == env && row.Protocol == "QUIC" {
				switch row.Scenario {
				case "fast-fiber":
					fiber = row.Mean.Point
				case "lossy-satellite":
					sat = row.Mean.Point
				}
			}
		}
		if fiber <= sat {
			t.Fatalf("%v: fast-fiber (%.1f) should out-rate lossy-satellite (%.1f)", env, fiber, sat)
		}
	}
}

// TestPopABShapes: the A/B population reproduces the paper's central
// gradient over the scenario library — the faster the network, the fewer
// participants notice a protocol difference.
func TestPopABShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("population-scale run")
	}
	tb := popTestbed(t)
	res, err := popABRun(context.Background(), tb, Options{Scale: tb.Scale, Seed: core.DeriveSeed(1, "pop-ab")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Votes < 1_000_000 {
		t.Fatalf("pop-ab streamed %d votes, want >= 1M", res.Votes)
	}
	notice := map[string]float64{}
	for _, row := range res.Rows {
		if row.Pair == (study.ProtocolPair{A: "QUIC", B: "TCP"}) {
			notice[row.Scenario] = row.Noticed.Point
		}
	}
	if notice["fast-fiber"] >= notice["throttled-3g"] {
		t.Fatalf("notice share should grow as the scenario slows: fiber %.2f vs 3g %.2f",
			notice["fast-fiber"], notice["throttled-3g"])
	}
	// Wilson intervals at N ~ 90k are tight.
	for _, row := range res.Rows {
		if row.Noticed.Width() > 0.02 {
			t.Fatalf("%s/%s: CI width %.3f too wide for N=%d", row.Pair, row.Scenario, row.Noticed.Width(), row.N)
		}
	}
}

// TestPopSweepCrossover: scaling the LTE operating point up must eventually
// push the notice share below 50% — the quantitative version of the paper's
// "faster networks hide the protocol" conclusion, judged by a streamed
// population panel.
func TestPopSweepCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("population-scale run")
	}
	tb := core.NewTestbed(core.QuickScale(), 1)
	res, err := popSweepRun(context.Background(), tb, Options{Scale: tb.Scale, Seed: core.DeriveSeed(1, "pop-sweep")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(popSweepFactors) {
		t.Fatalf("rows %d, want %d", len(res.Rows), len(popSweepFactors))
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if !(first.Noticed.Point > last.Noticed.Point) {
		t.Fatalf("notice share should fall with speed: x%g %.2f vs x%g %.2f",
			first.Factor, first.Noticed.Point, last.Factor, last.Noticed.Point)
	}
	if !res.HasCross {
		t.Fatal("sweep should locate a crossover within the 16x span")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "falls below 50%") {
		t.Fatal("render should report the crossover")
	}
}
