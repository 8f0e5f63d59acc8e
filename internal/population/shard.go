package population

import (
	"context"
	"fmt"

	"repro/internal/conformance"
	"repro/internal/stats"
)

// This file is the population engine's distribution surface: shard-range
// sub-studies plus wire-encodable per-shard aggregates and the reduction
// that folds them back. The contract the fabric builds on:
//
//   - Shard indices are absolute. RunABRange(cells, cfg, {Lo: 8, Hi: 16})
//     computes exactly the bytes shards 8..15 of RunAB(cells, cfg) would —
//     same per-shard seeds (core.DeriveSeed("pop-shard/i")), same
//     participant ranges — no matter which process (or machine) runs it.
//   - Per-shard aggregates travel as JSON-taggable states. encoding/json
//     round-trips float64 exactly (shortest-repr formatting), so imported
//     states carry the same bits as the in-memory originals.
//   - ReduceAB/ReduceRating import each state and absorb it through the same
//     accumulator fold RunAB/RunRating use (accumulate.go): shards
//     0..Shards-1 merged in ascending order. Welford's merge is not
//     associative in floating point, so the coordinator ships per-shard
//     states (not pre-merged ranges); with one fold over the same states in
//     the same order, a distributed run is byte-identical to a single-node
//     run at any cluster size.

// ShardRange is a half-open range [Lo, Hi) of absolute shard indices.
type ShardRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Count returns the number of shards in the range.
func (r ShardRange) Count() int { return r.Hi - r.Lo }

func (r ShardRange) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// validate checks the range against a normalized shard count.
func (r ShardRange) validate(shards int) error {
	if r.Lo < 0 || r.Hi <= r.Lo || r.Hi > shards {
		return fmt.Errorf("population: shard range %s invalid for %d shards", r, shards)
	}
	return nil
}

// Normalize applies the engine's defaulting rules (population size, shard
// count, worker clamp) and returns the effective configuration. Coordinators
// and workers normalize independently and must agree on everything but
// Workers — Normalize is exported so both sides (and tests) can pin that.
func (c Config) Normalize() Config { return c.withDefaults() }

// ABCellState is the wire form of one shard's ABCellStats.
type ABCellState struct {
	VotesA     int64              `json:"votes_a"`
	VotesB     int64              `json:"votes_b"`
	VotesNone  int64              `json:"votes_none"`
	Confidence stats.WelfordState `json:"confidence"`
	Replays    stats.WelfordState `json:"replays"`
}

// ABShardState is the wire form of one A/B shard's private aggregates.
type ABShardState struct {
	Shard  int                     `json:"shard"`
	Kept   int64                   `json:"kept"`
	Votes  int64                   `json:"votes"`
	Cells  []ABCellState           `json:"cells"`
	Funnel conformance.FunnelState `json:"funnel"`
}

// RatingCellState is the wire form of one shard's RatingCellStats.
type RatingCellState struct {
	Speed   stats.WelfordState    `json:"speed"`
	Quality stats.WelfordState    `json:"quality"`
	Hist    stats.StreamHistState `json:"hist"`
}

// RatingShardState is the wire form of one rating shard's private
// aggregates.
type RatingShardState struct {
	Shard  int                     `json:"shard"`
	Kept   int64                   `json:"kept"`
	Votes  int64                   `json:"votes"`
	Cells  []RatingCellState       `json:"cells"`
	Funnel conformance.FunnelState `json:"funnel"`
}

// RunABRange computes the A/B aggregates of the shards in r only, returning
// one wire-encodable state per shard in ascending shard order. The absolute
// seeding contract makes the result independent of which node runs it.
func RunABRange(ctx context.Context, cells []ABCell, cfg Config, r ShardRange) ([]ABShardState, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("population: no A/B cells")
	}
	cfg = cfg.withDefaults()
	if err := r.validate(cfg.Shards); err != nil {
		return nil, err
	}
	shards, err := runABShards(ctx, cells, cfg, r.Lo, r.Hi)
	if err != nil {
		return nil, err
	}
	out := make([]ABShardState, len(shards))
	for i := range shards {
		sh := &shards[i]
		st := ABShardState{
			Shard:  r.Lo + i,
			Kept:   sh.kept,
			Votes:  sh.votes,
			Cells:  make([]ABCellState, len(sh.cells)),
			Funnel: sh.funnel.State(),
		}
		for ci := range sh.cells {
			c := &sh.cells[ci]
			st.Cells[ci] = ABCellState{
				VotesA:     c.VotesA,
				VotesB:     c.VotesB,
				VotesNone:  c.VotesNone,
				Confidence: c.Confidence.State(),
				Replays:    c.Replays.State(),
			}
		}
		out[i] = st
	}
	return out, nil
}

// RunRatingRange is RunABRange's counterpart for the rating design.
func RunRatingRange(ctx context.Context, cells []RatingCell, cfg Config, r ShardRange) ([]RatingShardState, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("population: no rating cells")
	}
	cfg = cfg.withDefaults()
	if err := r.validate(cfg.Shards); err != nil {
		return nil, err
	}
	shards, err := runRatingShards(ctx, cells, cfg, r.Lo, r.Hi)
	if err != nil {
		return nil, err
	}
	out := make([]RatingShardState, len(shards))
	for i := range shards {
		sh := &shards[i]
		st := RatingShardState{
			Shard:  r.Lo + i,
			Kept:   sh.kept,
			Votes:  sh.votes,
			Cells:  make([]RatingCellState, len(sh.cells)),
			Funnel: sh.funnel.State(),
		}
		for ci := range sh.cells {
			c := &sh.cells[ci]
			st.Cells[ci] = RatingCellState{
				Speed:   c.Speed.State(),
				Quality: c.Quality.State(),
				Hist:    c.Hist.State(),
			}
		}
		out[i] = st
	}
	return out, nil
}

// ReduceAB folds wire states — which must cover shards 0..Shards-1 exactly
// once, in ascending order — into the final result, byte-identical to the
// RunAB that would have computed all shards locally. A gap, duplicate,
// shape mismatch or count no run produces is an error, never a silent
// partial result.
func ReduceAB(cells []ABCell, cfg Config, states []ABShardState) (ABResult, error) {
	acc, err := NewABAccumulator(cells, cfg)
	if err != nil {
		return ABResult{}, err
	}
	if len(states) != acc.cfg.Shards {
		return ABResult{}, fmt.Errorf("population: reduce has %d shard states, want %d", len(states), acc.cfg.Shards)
	}
	if err := acc.Absorb(states); err != nil {
		return ABResult{}, err
	}
	return acc.Result(), nil
}

// ReduceRating is ReduceAB's counterpart for the rating design.
func ReduceRating(cells []RatingCell, cfg Config, states []RatingShardState) (RatingResult, error) {
	acc, err := newRatingAccumulator(cells, cfg)
	if err != nil {
		return RatingResult{}, err
	}
	if len(states) != acc.cfg.Shards {
		return RatingResult{}, fmt.Errorf("population: reduce has %d shard states, want %d", len(states), acc.cfg.Shards)
	}
	if err := acc.Absorb(states); err != nil {
		return RatingResult{}, err
	}
	return acc.Result(), nil
}
