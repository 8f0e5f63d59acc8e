package population

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/conformance"
	"repro/internal/stats"
	"repro/internal/study"
)

// randomSplit partitions [0, shards) into contiguous ranges at random cut
// points — the shape of any coordinator's sub-job plan.
func randomSplit(rng *rand.Rand, shards int) []ShardRange {
	var out []ShardRange
	lo := 0
	for lo < shards {
		hi := lo + 1 + rng.Intn(shards-lo)
		out = append(out, ShardRange{Lo: lo, Hi: hi})
		lo = hi
	}
	return out
}

// wireTrip round-trips a value through JSON, as the fabric wire does.
func wireTrip[T any](t *testing.T, v T) T {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestABSplitReduceEquivalence is the fabric's core property: for random
// contiguous splits of the shard space, running each range independently,
// shipping the per-shard states through JSON, and reducing them must
// reproduce the unsplit run exactly — including the Welford float bits, the
// histogram bins, and the conformance funnel.
func TestABSplitReduceEquivalence(t *testing.T) {
	cells := testABCells()
	cfg := Config{Group: study.Microworker, Participants: 5_000, Shards: 13, Seed: 42, Conformance: true}
	want, err := RunAB(context.Background(), cells, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		var states []ABShardState
		for _, r := range randomSplit(rng, cfg.Normalize().Shards) {
			part, err := RunABRange(context.Background(), cells, cfg, r)
			if err != nil {
				t.Fatalf("trial %d range %v: %v", trial, r, err)
			}
			for _, st := range part {
				states = append(states, wireTrip(t, st))
			}
		}
		got, err := ReduceAB(cells, cfg, states)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: split+reduce diverged from unsplit run", trial)
		}
	}
}

// TestRatingSplitReduceEquivalence is the rating-design counterpart.
func TestRatingSplitReduceEquivalence(t *testing.T) {
	cells := testRatingCells()
	cfg := Config{Group: study.Microworker, Participants: 4_000, Shards: 9, Seed: 7, Conformance: true}
	want, err := RunRating(context.Background(), cells, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		var states []RatingShardState
		for _, r := range randomSplit(rng, cfg.Normalize().Shards) {
			part, err := RunRatingRange(context.Background(), cells, cfg, r)
			if err != nil {
				t.Fatalf("trial %d range %v: %v", trial, r, err)
			}
			for _, st := range part {
				states = append(states, wireTrip(t, st))
			}
		}
		got, err := ReduceRating(cells, cfg, states)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: split+reduce diverged from unsplit run", trial)
		}
	}
}

// TestReduceABRejectsBadCoverage: gaps, duplicates, reordering, and shape
// mismatches must fail loudly — a distributed reduce never silently drops a
// shard.
func TestReduceABRejectsBadCoverage(t *testing.T) {
	cells := testABCells()
	cfg := Config{Group: study.Microworker, Participants: 1_000, Shards: 4, Seed: 1, Conformance: true}
	states, err := RunABRange(context.Background(), cells, cfg, ShardRange{Lo: 0, Hi: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReduceAB(cells, cfg, states[:3]); err == nil {
		t.Error("missing shard accepted")
	}
	swapped := append([]ABShardState(nil), states...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	if _, err := ReduceAB(cells, cfg, swapped); err == nil {
		t.Error("out-of-order shards accepted")
	}
	dup := append([]ABShardState(nil), states...)
	dup[2] = dup[1]
	if _, err := ReduceAB(cells, cfg, dup); err == nil {
		t.Error("duplicate shard accepted")
	}
	short := append([]ABShardState(nil), states...)
	short[0].Cells = short[0].Cells[:1]
	if _, err := ReduceAB(cells, cfg, short); err == nil {
		t.Error("cell-count mismatch accepted")
	}
	garbled := append([]ABShardState(nil), states...)
	garbled[0].Funnel.Start += 7 // breaks the funnel's sum invariant
	if _, err := ReduceAB(cells, cfg, garbled); err == nil {
		t.Error("garbled funnel state accepted")
	}

	// Forged states whose wire encoding is internally well-formed but whose
	// counts no run of this config can produce.
	for _, tc := range []struct {
		name   string
		forge  func(st []ABShardState)
		noConf bool // forge a run with conformance off
	}{
		{name: "funnel start beyond the shard's participants", forge: func(st []ABShardState) {
			st[1].Funnel.Start += 50
			st[1].Funnel.FirstViol[conformance.RuleCount] += 50
		}},
		{name: "kept beyond the funnel's conforming count", forge: func(st []ABShardState) { st[2].Kept += 7 }},
		{name: "votes beyond the cells' votes", forge: func(st []ABShardState) { st[3].Votes += 11 }},
		{name: "funnel of another group", forge: func(st []ABShardState) { st[0].Funnel.Group = study.Lab }},
		{name: "funnel of the rating design", forge: func(st []ABShardState) { st[0].Funnel.Kind = conformance.Rating }},
		{name: "cell votes without confidence answers", forge: func(st []ABShardState) {
			st[0].Cells[0].VotesA++
			st[0].Votes++
		}},
		{name: "replay count disagrees", forge: func(st []ABShardState) { st[1].Cells[2].Replays.N++ }},
		{name: "negative cell count", forge: func(st []ABShardState) {
			c := &st[2].Cells[1]
			d := c.VotesNone + 1
			c.VotesNone -= d
			c.VotesA += d
		}},
		{name: "cell with more votes than kept participants", forge: func(st []ABShardState) {
			c := &st[3].Cells[0]
			extra := st[3].Kept + 1 - (c.VotesA + c.VotesB + c.VotesNone)
			c.VotesB += extra
			c.Confidence.N += extra
			c.Replays.N += extra
			st[3].Votes += extra
		}},
		{name: "funnel with conformance off", noConf: true, forge: func(st []ABShardState) {
			st[0].Funnel.Start, st[0].Funnel.FirstViol[conformance.RuleCount] = 1, 1
		}},
		{name: "kept below the participants with conformance off", noConf: true, forge: func(st []ABShardState) { st[1].Kept-- }},
	} {
		c := cfg
		c.Conformance = !tc.noConf
		real, err := RunABRange(context.Background(), cells, c, ShardRange{Lo: 0, Hi: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReduceAB(cells, c, wireTrip(t, real)); err != nil {
			t.Fatalf("%s: unforged states rejected: %v", tc.name, err)
		}
		forged := wireTrip(t, real)
		tc.forge(forged)
		if _, err := ReduceAB(cells, c, forged); err == nil {
			t.Errorf("%s: forged state accepted", tc.name)
		}
	}
}

// TestRunABRangeAbsoluteIndexing: shard i computed via any enclosing range
// is bit-identical — the property that lets a coordinator re-run lost
// shards anywhere.
func TestRunABRangeAbsoluteIndexing(t *testing.T) {
	cells := testABCells()
	cfg := Config{Group: study.Microworker, Participants: 2_000, Shards: 8, Seed: 3, Conformance: true}
	full, err := RunABRange(context.Background(), cells, cfg, ShardRange{Lo: 0, Hi: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []ShardRange{{Lo: 2, Hi: 3}, {Lo: 1, Hi: 5}, {Lo: 5, Hi: 8}} {
		part, err := RunABRange(context.Background(), cells, cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range part {
			if !reflect.DeepEqual(st, full[r.Lo+i]) {
				t.Fatalf("shard %d computed via range %v differs from full run", r.Lo+i, r)
			}
		}
	}
}

// TestWelfordMergeOrderSensitivity pins WHY the reduce replays the exact
// single-node fold: Welford's merge is not associative in floating point,
// so merging the same shard states in a different order generally lands on
// different bits. (If this ever starts passing for all orders, the ordered
// reduce is still correct — just no longer load-bearing.)
func TestWelfordMergeOrderSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shards := make([]stats.Welford, 8)
	for i := range shards {
		for j := 0; j < 50; j++ {
			shards[i].Add(rng.NormFloat64()*100 + float64(i))
		}
	}
	fold := func(order []int) stats.Welford {
		var acc stats.Welford
		for _, i := range order {
			acc.Merge(shards[i])
		}
		return acc
	}
	asc := fold([]int{0, 1, 2, 3, 4, 5, 6, 7})
	sensitive := false
	for trial := 0; trial < 50 && !sensitive; trial++ {
		order := rng.Perm(8)
		alt := fold(order)
		if math.Float64bits(alt.Mean()) != math.Float64bits(asc.Mean()) ||
			math.Float64bits(alt.StdDev()) != math.Float64bits(asc.StdDev()) {
			sensitive = true
		}
	}
	if !sensitive {
		t.Fatal("Welford merge appears order-insensitive; the ordered-reduce contract is no longer load-bearing")
	}
	// Order only changes the float bits, never the substance.
	alt := fold([]int{7, 6, 5, 4, 3, 2, 1, 0})
	if alt.N() != asc.N() || math.Abs(alt.Mean()-asc.Mean()) > 1e-9 {
		t.Fatal("Welford merge order changed the statistics materially")
	}
}

// TestStreamHistMergeOrderInvariance pins the contrast: histogram merge is
// bin-wise integer addition, so ANY merge order is exactly identical. The
// ordered reduce exists for the Welford streams, not the histograms.
func TestStreamHistMergeOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const bins = 20
	shards := make([]*stats.StreamHist, 6)
	for i := range shards {
		shards[i] = stats.NewStreamHist(0, 100, bins)
		for j := 0; j < 200; j++ {
			shards[i].Add(rng.Float64() * 100)
		}
	}
	merge := func(order []int) *stats.StreamHist {
		acc := stats.NewStreamHist(0, 100, bins)
		for _, i := range order {
			acc.Merge(shards[i])
		}
		return acc
	}
	asc := merge([]int{0, 1, 2, 3, 4, 5})
	for trial := 0; trial < 20; trial++ {
		alt := merge(rng.Perm(6))
		if !reflect.DeepEqual(alt.State(), asc.State()) {
			t.Fatal("StreamHist merge became order-sensitive")
		}
	}
}

// TestStateWireRoundTrip: exported aggregator states survive JSON exactly,
// bit for bit — the property that makes the NDJSON shard wire lossless.
func TestStateWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var w stats.Welford
	for i := 0; i < 1000; i++ {
		w.Add(rng.NormFloat64() * 1e6)
	}
	ws := wireTrip(t, w.State())
	if ws != w.State() {
		t.Fatal("WelfordState changed across JSON")
	}
	var re stats.Welford
	re.Import(ws)
	if math.Float64bits(re.Mean()) != math.Float64bits(w.Mean()) ||
		math.Float64bits(re.StdDev()) != math.Float64bits(w.StdDev()) {
		t.Fatal("imported Welford diverged bitwise")
	}

	h := stats.NewStreamHist(study.RatingMin, study.RatingMax, ratingHistBins)
	for i := 0; i < 500; i++ {
		h.Add(study.RatingMin + rng.Float64()*(study.RatingMax-study.RatingMin))
	}
	hs := wireTrip(t, h.State())
	h2 := stats.NewStreamHist(study.RatingMin, study.RatingMax, ratingHistBins)
	if err := h2.Import(hs); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h2.State(), h.State()) {
		t.Fatal("imported StreamHist diverged")
	}
}
