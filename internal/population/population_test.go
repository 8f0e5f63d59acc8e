package population

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/prng"
	"repro/internal/study"
)

// testABCells builds a small grid of A/B stimuli with gaps ranging from
// imperceptible to obvious.
func testABCells() []ABCell {
	gaps := []float64{1.02, 1.1, 1.4, 2.5}
	var out []ABCell
	for i, g := range gaps {
		base := 0.8 + 0.4*float64(i)
		out = append(out, ABCell{
			Label: "cell",
			Left:  metrics.Report{SI: time.Duration(base * g * float64(time.Second)), FVC: time.Duration(base * g * 0.6 * float64(time.Second)), Complete: true},
			Right: metrics.Report{SI: time.Duration(base * float64(time.Second)), FVC: time.Duration(base * 0.6 * float64(time.Second)), Complete: true},
			// Right is faster here; mark A on the right.
			AOnLeft: i%2 == 0,
		})
	}
	// For AOnLeft cells, swap so A (the faster variant) really is on the left.
	for i := range out {
		if out[i].AOnLeft {
			out[i].Left, out[i].Right = out[i].Right, out[i].Left
		}
	}
	return out
}

func testRatingCells() []RatingCell {
	var out []RatingCell
	rng := prng.New(5)
	for _, env := range study.Environments() {
		for i := 0; i < 6; i++ {
			si := 0.3 + rng.Float64()*4
			out = append(out, RatingCell{
				Label: "cell",
				Rep:   metrics.Report{SI: time.Duration(si * float64(time.Second)), Complete: true},
				Env:   env,
			})
		}
	}
	return out
}

// TestABDeterministicAcrossWorkers: for a fixed shard count the full result
// must be deeply identical at any worker count — the engine-level version of
// the runner's sequential-vs-parallel byte-identity contract.
func TestABDeterministicAcrossWorkers(t *testing.T) {
	cells := testABCells()
	base := Config{Group: study.Microworker, Participants: 3_000, Shards: 16, Seed: 7, Conformance: true}
	seq := base
	seq.Workers = 1
	par := base
	par.Workers = 8
	a, err := RunAB(context.Background(), cells, seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAB(context.Background(), cells, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sequential and parallel A/B results differ:\n%+v\nvs\n%+v", a, b)
	}
}

// TestRatingDeterministicAcrossWorkers: same contract for the rating design.
func TestRatingDeterministicAcrossWorkers(t *testing.T) {
	cells := testRatingCells()
	base := Config{Group: study.Microworker, Participants: 3_000, Shards: 16, Seed: 3, Conformance: true}
	seq := base
	seq.Workers = 1
	par := base
	par.Workers = 8
	a, err := RunRating(context.Background(), cells, seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRating(context.Background(), cells, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sequential and parallel rating results differ")
	}
}

// TestABVoteAccounting: votes land in exactly one tally, totals match the
// session plans, and the obvious-gap cell is noticed far more often than the
// subtle one with the faster variant winning.
func TestABVoteAccounting(t *testing.T) {
	cells := testABCells()
	res, err := RunAB(context.Background(), cells, Config{Group: study.Microworker, Participants: 2_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan := study.PlanFor(study.Microworker)
	votesPer := plan.ABVideos
	if votesPer > len(cells) {
		votesPer = len(cells)
	}
	want := int64(2_000 * votesPer)
	if res.Votes != want {
		t.Fatalf("votes %d, want %d", res.Votes, want)
	}
	var sum int64
	for i := range res.Cells {
		c := &res.Cells[i]
		sum += c.N()
		if noticed := c.Noticed(); noticed.N() != c.N() {
			t.Fatalf("cell %d: noticed trials %d != votes %d", i, noticed.N(), c.N())
		}
		if c.Confidence.N() != c.N() || c.Replays.N() != c.N() {
			t.Fatalf("cell %d: welford count mismatch", i)
		}
	}
	if sum != res.Votes {
		t.Fatalf("per-cell votes %d != total %d", sum, res.Votes)
	}
	subtle, obvious := &res.Cells[0], &res.Cells[3]
	subtleNoticed, obviousNoticed := subtle.Noticed(), obvious.Noticed()
	if obviousNoticed.Share() <= subtleNoticed.Share() {
		t.Fatalf("notice share should grow with the gap: subtle %.2f obvious %.2f",
			subtleNoticed.Share(), obviousNoticed.Share())
	}
	if obvious.ShareA() <= obvious.ShareB() {
		t.Fatalf("faster variant should win the obvious cell: A %.2f B %.2f",
			obvious.ShareA(), obvious.ShareB())
	}
}

// TestRatingAggregates: every vote is aggregated, histograms agree with the
// Welford counts, and slower pages rate worse.
func TestRatingAggregates(t *testing.T) {
	fast := RatingCell{Label: "fast", Rep: metrics.Report{SI: 400 * time.Millisecond, Complete: true}, Env: study.AtWork}
	slow := RatingCell{Label: "slow", Rep: metrics.Report{SI: 8 * time.Second, Complete: true}, Env: study.AtWork}
	res, err := RunRating(context.Background(), []RatingCell{fast, slow}, Config{Group: study.Lab, Participants: 2_000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.Hist.N() != c.Speed.N() || c.Quality.N() != c.Speed.N() {
			t.Fatalf("cell %d: aggregate counts diverge", i)
		}
	}
	if res.Cells[0].Speed.Mean() <= res.Cells[1].Speed.Mean() {
		t.Fatalf("fast page should out-rate slow page: %.1f vs %.1f",
			res.Cells[0].Speed.Mean(), res.Cells[1].Speed.Mean())
	}
}

// TestConformanceFunnelStreams: with conformance on, the funnel matches the
// population size, survivors vote, and the µWorker drop rate is in the
// calibrated ballpark (Table 3 keeps roughly 40% of rating µWorkers).
func TestConformanceFunnelStreams(t *testing.T) {
	cells := testRatingCells()
	res, err := RunRating(context.Background(), cells, Config{
		Group: study.Microworker, Participants: 10_000, Seed: 4, Conformance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Funnel.Start != 10_000 {
		t.Fatalf("funnel start %d", res.Funnel.Start)
	}
	if int64(res.Funnel.Final()) != res.Kept {
		t.Fatalf("funnel final %d != kept %d", res.Funnel.Final(), res.Kept)
	}
	share := float64(res.Kept) / 10_000
	if share < 0.30 || share > 0.55 {
		t.Fatalf("µWorker rating survival %.2f outside calibrated band", share)
	}
}

// TestMemoryIndependentOfPopulation: the live aggregate state is
// O(shards x cells); growing the population 10x must not grow allocations
// per run beyond noise. We assert the structural fact instead of rusage:
// result size equals cells regardless of participants.
func TestMemoryIndependentOfPopulation(t *testing.T) {
	cells := testABCells()
	small, err := RunAB(context.Background(), cells, Config{Participants: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunAB(context.Background(), cells, Config{Participants: 5_000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Cells) != len(cells) || len(big.Cells) != len(cells) {
		t.Fatal("result size must equal cell count")
	}
	if big.Votes <= small.Votes {
		t.Fatal("bigger population must produce more votes")
	}
}

// TestShardRangeCoversPopulation: the shard partition is exact and disjoint.
func TestShardRangeCoversPopulation(t *testing.T) {
	for _, tc := range []struct{ total, shards int }{{100, 7}, {64, 64}, {1_000_001, 64}, {5, 5}} {
		covered := 0
		prevHi := 0
		for i := 0; i < tc.shards; i++ {
			lo, hi := shardRange(tc.total, tc.shards, i)
			if lo != prevHi {
				t.Fatalf("total=%d shards=%d: shard %d starts at %d, want %d", tc.total, tc.shards, i, lo, prevHi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.total {
			t.Fatalf("total=%d shards=%d: covered %d", tc.total, tc.shards, covered)
		}
	}
}

// TestRunABCanceled: a context cancelled mid-run must abort a large A/B
// population study promptly with ctx.Err(), well before the population could
// have been processed, and a follow-up run with the same inputs still
// produces the full, correct result (no shared state is corrupted).
func TestRunABCanceled(t *testing.T) {
	cells := testABCells()
	// A population this size takes many seconds sequentially; the deadline
	// fires after a handful of shards at most.
	cfg := Config{Group: study.Microworker, Participants: 2_000_000, Shards: 256, Seed: 11, Conformance: true}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err := RunAB(ctx, cells, cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunAB returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled RunAB took %v, want prompt return", elapsed)
	}

	// The engine is stateless across runs: the same config at a sane size
	// still completes and stays deterministic after the aborted run.
	small := Config{Group: study.Microworker, Participants: 1_000, Seed: 11, Conformance: true}
	a, err := RunAB(context.Background(), cells, small)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAB(context.Background(), cells, small)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("post-cancellation runs lost determinism")
	}
}

// TestRunRatingCanceled: same prompt-abort contract for the rating design,
// via an already-cancelled context (the cheapest possible cancellation).
func TestRunRatingCanceled(t *testing.T) {
	cells := testRatingCells()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunRating(ctx, cells, Config{Group: study.Microworker, Participants: 100_000, Seed: 6}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunRating returned %v, want context.Canceled", err)
	}
	// Sequential path too (workers == 1 takes the inline branch).
	if _, err := RunRating(ctx, cells, Config{Group: study.Microworker, Participants: 100_000, Workers: 1, Seed: 6}); !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential RunRating returned %v, want context.Canceled", err)
	}
}

// TestDrawDistinct: draws are distinct, in range, exhaustive when k = n,
// and leave perm the identity for the next call.
func TestDrawDistinct(t *testing.T) {
	ws := &newPopWorkers(1, 10)[0]
	ws.rng.Seed(1)
	for trial := 0; trial < 100; trial++ {
		n := 1 + trial%10
		got := ws.drawDistinct(n, 4)
		if len(got) != min(n, 4) {
			t.Fatalf("drew %d of %d, want %d", len(got), n, min(n, 4))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("bad draw %v of %d", got, n)
			}
			seen[v] = true
		}
		for i, v := range ws.perm {
			if v != i {
				t.Fatalf("perm not restored after drawing %v: %v", got, ws.perm)
			}
		}
	}
	if got := ws.drawDistinct(10, 99); len(got) != 10 {
		t.Fatalf("k>n should clamp to n, got %d", len(got))
	}
}

// TestDrawDistinctMatchesFreshPerm pins drawDistinct's picks and draws to a
// partial Fisher-Yates shuffle of a freshly reset permutation: restoring
// perm instead of resetting it must not move a single pick.
func TestDrawDistinctMatchesFreshPerm(t *testing.T) {
	ws := &newPopWorkers(1, 160)[0]
	ws.rng.Seed(3)
	ref := prng.New(3)
	fresh := make([]int, 160)
	for trial := 0; trial < 2000; trial++ {
		n, k := 1+trial%160, trial%23
		got := ws.drawDistinct(n, k)
		for i := range fresh[:n] {
			fresh[i] = i
		}
		want := fresh[:min(k, n)]
		for i := range want {
			j := i + ref.Intn(n-i)
			fresh[i], fresh[j] = fresh[j], fresh[i]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: drew %v, a fresh permutation draws %v", trial, got, want)
		}
	}
}
