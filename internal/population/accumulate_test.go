package population

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/study"
)

// TestABTruncationInvariant pins the partial-budget contract an
// early-stopped adaptive cell relies on: the accumulator's state after
// absorbing shards 0..k-1 is bit-identical to a full run truncated at the
// same participants — cell aggregates, vote counters, AND the conformance
// funnel. Equivalently: RunABRange(0, k) states folded incrementally equal
// the first k states of the full run folded the same way.
func TestABTruncationInvariant(t *testing.T) {
	cells := testABCells()
	cfg := Config{Group: study.Microworker, Participants: 4000, Shards: 16, Workers: 2, Seed: 11, Conformance: true}
	full, err := RunABRange(context.Background(), cells, cfg, ShardRange{Lo: 0, Hi: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 7, 16} {
		// A run that stops after k shards computes exactly the full run's
		// first k states (absolute seeding: later shards never feed back).
		partial, err := RunABRange(context.Background(), cells, cfg, ShardRange{Lo: 0, Hi: k})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(partial, full[:k]) {
			t.Fatalf("k=%d: truncated run states differ from full run prefix", k)
		}
		acc, err := NewABAccumulator(cells, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.Absorb(partial); err != nil {
			t.Fatal(err)
		}
		res := acc.Result()
		// The funnel must account for exactly the truncated population.
		if got := int64(res.Funnel.Start); got != int64(acc.Participants()) {
			t.Fatalf("k=%d: funnel start %d, want covered participants %d", k, got, acc.Participants())
		}
		if res.Shards != cfg.Shards || acc.Shards() != k {
			t.Fatalf("k=%d: shards %d/%d", k, acc.Shards(), res.Shards)
		}
		if k == 16 {
			batch, err := RunAB(context.Background(), cells, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !acc.Done() {
				t.Fatal("accumulator not done after full prefix")
			}
			if !reflect.DeepEqual(res, batch) {
				t.Fatalf("full prefix result differs from RunAB: %+v vs %+v", res, batch)
			}
		} else {
			if res.Participants >= cfg.Participants {
				t.Fatalf("k=%d: partial result reports full budget %d", k, res.Participants)
			}
		}
		// Mid-flight equality: the accumulator's cumulative state equals the
		// manual left fold of the same prefix at every intermediate point.
		manual, err := NewABAccumulator(cells, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if err := manual.Absorb(full[i : i+1]); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(manual.Result(), res) {
			t.Fatalf("k=%d: one-at-a-time absorb differs from batch absorb", k)
		}
	}
}

// TestRatingTruncationInvariant is the rating-design counterpart, pinning
// that partial-budget histograms and funnels equal a truncated full run's.
func TestRatingTruncationInvariant(t *testing.T) {
	cells := testRatingCells()
	cfg := Config{Group: study.Microworker, Participants: 3000, Shards: 12, Workers: 2, Seed: 13, Conformance: true}
	full, err := RunRatingRange(context.Background(), cells, cfg, ShardRange{Lo: 0, Hi: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 5, 12} {
		partial, err := RunRatingRange(context.Background(), cells, cfg, ShardRange{Lo: 0, Hi: k})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(partial, full[:k]) {
			t.Fatalf("k=%d: truncated run states differ from full run prefix", k)
		}
		acc, err := newAccumulator[RatingCellStats, RatingCellState](newRatingDesign(cells, cfg), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.Absorb(partial); err != nil {
			t.Fatal(err)
		}
		res := acc.Result()
		if got := int64(res.Funnel.Start); got != int64(acc.Participants()) {
			t.Fatalf("k=%d: funnel start %d, want covered participants %d", k, got, acc.Participants())
		}
		// Histogram mass must equal the truncated run's vote count per cell.
		var histN, welfN int64
		for i := range res.Cells {
			histN += res.Cells[i].Hist.N()
			welfN += res.Cells[i].Speed.N()
		}
		if histN != welfN {
			t.Fatalf("k=%d: histogram mass %d != welford mass %d", k, histN, welfN)
		}
		if k == 12 {
			batch, err := RunRating(context.Background(), cells, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Compare through wire states: RatingResult holds histogram
			// pointers, so structural equality goes via State().
			if len(res.Cells) != len(batch.Cells) {
				t.Fatalf("cell count %d vs %d", len(res.Cells), len(batch.Cells))
			}
			for i := range res.Cells {
				a, b := res.Cells[i], batch.Cells[i]
				if a.Label != b.Label || a.Env != b.Env ||
					!reflect.DeepEqual(a.Speed.State(), b.Speed.State()) ||
					!reflect.DeepEqual(a.Quality.State(), b.Quality.State()) ||
					!reflect.DeepEqual(a.Hist.State(), b.Hist.State()) {
					t.Fatalf("cell %d differs from RunRating", i)
				}
			}
			if res.Participants != batch.Participants || res.Kept != batch.Kept ||
				res.Votes != batch.Votes || res.Funnel != batch.Funnel {
				t.Fatalf("full prefix scalars differ from RunRating")
			}
		}
	}
}

// TestAccumulatorRejectsGaps: the prefix contract is enforced, not assumed.
func TestAccumulatorRejectsGaps(t *testing.T) {
	cells := testABCells()
	cfg := Config{Group: study.Microworker, Participants: 1000, Shards: 8, Workers: 1, Seed: 3, Conformance: true}
	states, err := RunABRange(context.Background(), cells, cfg, ShardRange{Lo: 0, Hi: 4})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewABAccumulator(cells, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Absorb(states[1:]); err == nil {
		t.Fatal("absorbing a prefix starting at shard 1 must fail")
	}
	if err := acc.Absorb(states); err != nil {
		t.Fatal(err)
	}
	if err := acc.Absorb(states[3:4]); err == nil {
		t.Fatal("absorbing a duplicate shard must fail")
	}
	if acc.Shards() != 4 {
		t.Fatalf("absorbed %d shards, want 4", acc.Shards())
	}

	// A forged state is rejected like a gap: the prefix stays where it was.
	more, err := RunABRange(context.Background(), cells, cfg, ShardRange{Lo: 4, Hi: 6})
	if err != nil {
		t.Fatal(err)
	}
	votes := acc.Votes()
	more[1].Kept += 7
	if err := acc.Absorb(more); err == nil {
		t.Fatal("absorbing a state with a forged kept count must fail")
	}
	if acc.Shards() != 5 || acc.Votes() != votes+more[0].Votes {
		t.Fatalf("after a rejected state: %d shards, %d votes; want 5 shards, %d votes", acc.Shards(), acc.Votes(), votes+more[0].Votes)
	}

	// The rating design checks the same counts, with Speed.N as the cell's
	// vote count.
	rcells := testRatingCells()
	rstates, err := RunRatingRange(context.Background(), rcells, cfg, ShardRange{Lo: 0, Hi: 2})
	if err != nil {
		t.Fatal(err)
	}
	racc, err := newAccumulator[RatingCellStats, RatingCellState](newRatingDesign(rcells, cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rstates[1].Cells[0].Quality.N++
	if err := racc.Absorb(rstates); err == nil {
		t.Fatal("absorbing a rating cell whose quality count disagrees must fail")
	}
	if racc.Participants() != rstates[0].Funnel.Start {
		t.Fatalf("rating prefix covers %d participants after a rejected state, want %d", racc.Participants(), rstates[0].Funnel.Start)
	}
}
