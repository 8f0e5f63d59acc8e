// Package population is the population-scale study engine: it simulates
// arbitrarily large synthetic participant populations performing the paper's
// two study designs (A/B "do users notice?" and single-video rating "do
// users care?") and streams every vote through online aggregators, so that
// a million-vote run uses memory proportional to the number of stimulus
// cells, not to the population.
//
// The engine shards the population: shard i draws all of its randomness from
// core.DeriveSeed(seed, "pop-shard/i"), accumulates its own per-cell
// aggregates (stats.Welford, stats.StreamHist and a streaming conformance
// funnel), and one accumulator folds the shard aggregates in shard order
// after all shards finish. Because neither the per-shard vote streams nor
// the fold order depend on scheduling, a run's result is byte-identical for
// any worker count — the same contract internal/runner makes across
// experiments, pushed down to the single-experiment scale the ROADMAP's
// "millions of users" north star needs. Fabric reduces and adaptive grants
// fold wire states through the same accumulator (accumulate.go), so they
// are byte-identical to a local run by construction.
//
// The engine exists once, generic over the design's cell aggregate: this
// file runs shards, accumulate.go folds them and shard.go carries them over
// the wire. The two designs (design.go) supply only what differs — their
// cell aggregates, how a shard's cells are built, and one participant's
// votes — so no result can depend on which design's copy of the machinery
// produced it.
package population

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/participant"
	"repro/internal/study"
)

// Config parameterizes one population run.
type Config struct {
	// Group selects the participant model (noise levels, misbehaviour
	// rates). Defaults to the µWorker crowd, the paper's volume population.
	Group study.Group
	// Participants is the synthetic population size (pre-filter).
	Participants int
	// VotesPerParticipant bounds the stimuli one participant sees. 0 uses
	// the group's session plan (ABVideos for A/B, the per-environment
	// rating counts for rating).
	VotesPerParticipant int
	// Shards splits the population into independently seeded slices. For a
	// fixed Shards value the result is byte-identical at any Workers
	// setting; changing Shards moves shard seed boundaries and therefore
	// legitimately changes the drawn population. The default (64) keeps
	// per-shard aggregate memory trivial while leaving a worker pool
	// enough parallelism.
	Shards int
	// Workers bounds concurrent shards: 0 resolves through
	// core.DefaultParallelism (the one shared worker default), 1 runs
	// sequentially.
	Workers int
	// Seed is the master seed; per-shard seeds derive from it.
	Seed int64
	// Conformance applies the paper's R1–R7 filter to the synthetic
	// population (misbehaving participants contribute no votes) and
	// accumulates the Table 3 funnel in O(1) memory.
	Conformance bool
}

func (c Config) withDefaults() Config {
	if c.Participants <= 0 {
		c.Participants = 10_000
	}
	if c.Shards <= 0 {
		c.Shards = 64
	}
	if c.Shards > c.Participants {
		c.Shards = c.Participants
	}
	if c.Workers <= 0 {
		c.Workers = core.DefaultParallelism()
	}
	if c.Workers > c.Shards {
		c.Workers = c.Shards
	}
	return c
}

// result is a completed population run of the design whose cell aggregate
// is C (ABResult, RatingResult).
type result[C any] struct {
	Cells        []C   // index-aligned with the input cells
	Participants int   // pre-filter population
	Kept         int64 // participants who survived conformance
	Votes        int64
	Funnel       conformance.Funnel // zero unless cfg.Conformance
	Shards       int
}

// design is what a study design supplies to the engine beside its cell
// aggregate C: the cells a shard aggregates into and one participant's
// votes.
type design[C any] interface {
	// kind is the conformance study kind participants are screened under.
	kind() conformance.StudyKind
	// ncells is the number of stimulus cells.
	ncells() int
	// newCells returns n runs of ncells empty, labelled aggregates in one slab.
	newCells(n int) []C
	// vote casts one kept participant's votes into a shard's cells with the
	// worker's model and rng, and returns how many it cast. It is called
	// once per participant and must not allocate.
	vote(ws *popWorker, cells []C) int64
}

// designNames names each design's cells in errors.
var designNames = [...]string{conformance.AB: "A/B", conformance.Rating: "rating"}

// checkCells rejects a design without stimulus cells.
func checkCells[C any](d design[C]) error {
	if d.ncells() == 0 {
		return fmt.Errorf("population: no %s cells", designNames[d.kind()])
	}
	return nil
}

// shardSeeds derives every shard's independent seed,
// core.DeriveSeed(master, "pop-shard/i"), once per run. The key does not
// escape, so below shard 100 building it allocates nothing.
func shardSeeds(master int64, shards int) []int64 {
	seeds := make([]int64, shards)
	for i := range seeds {
		seeds[i] = core.DeriveSeed(master, "pop-shard/"+strconv.Itoa(i))
	}
	return seeds
}

// shardRange returns the half-open participant range of shard i when total
// participants are split as evenly as possible over shards.
func shardRange(total, shards, i int) (lo, hi int) {
	base := total / shards
	rem := total % shards
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// drawDistinct writes k distinct values from [0, n) into dst (which must
// have capacity n) via a partial Fisher-Yates shuffle, and returns dst[:k].
func drawDistinct(rng *rand.Rand, dst []int, n, k int) []int {
	dst = dst[:n]
	for i := range dst {
		dst[i] = i
	}
	if k > n {
		k = n
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst[:k]
}

// popWorker is the pooled per-worker scratch of the shard loop: one rng
// (reseeded from the shard seed at every shard, so results stay independent
// of worker assignment), one reusable participant model, one reusable
// behaviour session, and the cell-draw scratch. Everything a participant
// iteration touches lives here or in the shard's slab-backed aggregates —
// the loop itself allocates nothing.
type popWorker struct {
	rng     *rand.Rand
	model   participant.Model
	session conformance.Session
	perm    []int
}

// newPopWorkers builds the scratch pool: one entry per pool slot.
func newPopWorkers(workers, permLen int) []popWorker {
	ws := make([]popWorker, workers)
	for i := range ws {
		ws[i].rng = rand.New(rand.NewSource(0)) // reseeded per shard
		ws[i].perm = make([]int, permLen)
	}
	return ws
}

// shard holds one shard's private aggregates.
type shard[C any] struct {
	cells []C
	totals
}

// runShards computes the private aggregates of shards [first, last) — the
// one code path every run goes through, whether it spans the full shard
// space (RunAB, RunRating) or a sub-range a fabric worker was handed
// (RunABRange, RunRatingRange). Shard indices are absolute: shard i draws
// the i-th seed of shardSeeds and participants shardRange(..., i) no matter
// which sub-range (or node) runs it, which is the fabric's determinism
// contract. cfg must already be normalized via withDefaults.
func runShards[C any](ctx context.Context, d design[C], cfg Config, first, last int) ([]shard[C], error) {
	// One slab backs every shard's cell aggregates; per-worker scratch is
	// pooled and reseeded per shard, so the participant loop below allocates
	// nothing no matter the population size.
	n, nc := last-first, d.ncells()
	shards := make([]shard[C], n)
	slab := d.newCells(n)
	for i := range shards {
		shards[i].cells = slab[i*nc : (i+1)*nc : (i+1)*nc]
	}
	seeds := shardSeeds(cfg.Seed, cfg.Shards)
	// cfg.Workers is resolved, so this is ForEach's own clamp: one scratch
	// entry per worker index it hands out.
	workers := min(cfg.Workers, n)
	pool := newPopWorkers(workers, nc)
	kind := d.kind()
	err := core.ForEach(ctx, n, workers, func(ctx context.Context, ri, wi int) error {
		si := first + ri
		sh := &shards[ri]
		ws := &pool[wi]
		ws.rng.Seed(seeds[si])
		lo, hi := shardRange(cfg.Participants, cfg.Shards, si)
		// A cancelled run winds down within one participant per worker.
		// Polling the Done channel, fetched once per shard, keeps the
		// participant loop off the context's shared mutex.
		done := ctx.Done()
		for p := lo; p < hi; p++ {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			if cfg.Conformance {
				participant.BehaviourInto(&ws.session, cfg.Group, kind, ws.rng)
				if !sh.funnel.Observe(&ws.session) {
					continue
				}
			}
			sh.kept++
			ws.model.Reinit(cfg.Group, ws.rng)
			sh.votes += d.vote(ws, sh.cells)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return shards, nil
}

// run simulates a design's study over all shards. Cancelling ctx aborts the
// run and returns ctx.Err(); shard aggregates are private until the final
// fold, so an aborted run leaves no partial state behind.
func run[C, S any, P cellStats[C, S]](ctx context.Context, d design[C], cfg Config) (result[C], error) {
	acc, err := newAccumulator[C, S, P](d, cfg)
	if err != nil {
		return result[C]{}, err
	}
	shards, err := runShards(ctx, d, acc.cfg, 0, acc.cfg.Shards)
	if err != nil {
		return result[C]{}, err
	}
	for i := range shards {
		acc.absorb(&shards[i])
	}
	return acc.Result(), nil
}
