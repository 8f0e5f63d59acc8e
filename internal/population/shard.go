package population

import (
	"context"
	"fmt"

	"repro/internal/conformance"
)

// This file is the population engine's distribution surface, for both
// designs: shard-range sub-studies plus wire-encodable per-shard aggregates
// and the reduction that folds them back. The contract the fabric builds on:
//
//   - Shard indices are absolute. RunABRange(cells, cfg, {Lo: 8, Hi: 16})
//     computes exactly the bytes shards 8..15 of RunAB(cells, cfg) would —
//     same per-shard seeds (core.DeriveSeed("pop-shard/i")), same
//     participant ranges — no matter which process (or machine) runs it.
//     RunRatingRange is the same range runner over the rating design.
//   - Per-shard aggregates travel as JSON-taggable states: one shard state
//     shape whose cells are the design's cell state. encoding/json
//     round-trips float64 exactly (shortest-repr formatting), so imported
//     states carry the same bits as the in-memory originals.
//   - A reduce (ReduceAB, ReduceRating) imports each state and absorbs it
//     through the same accumulator fold the runs use (accumulate.go):
//     shards 0..Shards-1 merged in ascending order. Welford's merge is not
//     associative in floating point, so the coordinator ships per-shard
//     states (not pre-merged ranges); with one fold over the same states in
//     the same order, a distributed run is byte-identical to a single-node
//     run at any cluster size.

// ShardRange is a half-open range [Lo, Hi) of absolute shard indices. It is
// also the wire range of a shard request (pkg/qoe aliases it), hence the
// JSON tags.
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

// shardState is the wire form of one shard's private aggregates, with cells
// in the design's wire form S (ABShardState, RatingShardState).
type shardState[S any] struct {
	Shard  int                     `json:"shard"`
	Kept   int64                   `json:"kept"`
	Votes  int64                   `json:"votes"`
	Cells  []S                     `json:"cells"`
	Funnel conformance.FunnelState `json:"funnel"`
}

// cellStats is what a design's cell aggregate C offers the engine: merging
// another shard's aggregate in, exporting its wire form S, and importing
// one. load validates the state against the shard's kept count before it
// imports it (errors name the shard and cell), and returns the cell's vote
// count.
type cellStats[C, S any] interface {
	*C
	Merge(*C)
	state() S
	load(st *S, shard, cell int, kept int64) (int64, error)
}

// runRange computes the aggregates of the shards in r only, returning one
// wire-encodable state per shard in ascending shard order. The absolute
// seeding contract makes the result independent of which node runs it.
func runRange[C, S any, P cellStats[C, S]](ctx context.Context, d design[C], cfg Config, r ShardRange) ([]shardState[S], error) {
	if err := checkCells(d); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := r.validate(cfg.Shards); err != nil {
		return nil, err
	}
	shards, err := runShards(ctx, d, cfg, r.Lo, r.Hi)
	if err != nil {
		return nil, err
	}
	out := make([]shardState[S], len(shards))
	for i := range shards {
		sh := &shards[i]
		cells := make([]S, len(sh.cells))
		for ci := range sh.cells {
			cells[ci] = P(&sh.cells[ci]).state()
		}
		out[i] = shardState[S]{Shard: r.Lo + i, Kept: sh.kept, Votes: sh.votes, Cells: cells, Funnel: sh.funnel.State()}
	}
	return out, nil
}

// reduce folds wire states — which must cover shards 0..Shards-1 exactly
// once, in ascending order — into the final result, byte-identical to the
// run that would have computed all shards locally. A gap, duplicate, shape
// mismatch or count no run produces is an error, never a silent partial
// result.
func reduce[C, S any, P cellStats[C, S]](d design[C], cfg Config, states []shardState[S]) (result[C], error) {
	acc, err := newAccumulator[C, S, P](d, cfg)
	if err != nil {
		return result[C]{}, err
	}
	if len(states) != acc.cfg.Shards {
		return result[C]{}, fmt.Errorf("population: reduce has %d shard states, want %d", len(states), acc.cfg.Shards)
	}
	if err := acc.Absorb(states); err != nil {
		return result[C]{}, err
	}
	return acc.Result(), nil
}
