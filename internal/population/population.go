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
package population

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/participant"
	"repro/internal/stats"
	"repro/internal/study"
)

// ABCell is one A/B stimulus: two page-load reports shown side by side.
type ABCell struct {
	Label string // e.g. "QUIC vs. TCP | congested-wifi | etsy.com"
	Left  metrics.Report
	Right metrics.Report
	// AOnLeft records which side carries the supposedly faster variant, so
	// per-cell tallies can be folded back into A-vs-B shares.
	AOnLeft bool
}

// RatingCell is one rating stimulus: a single page-load report rated under
// an environment framing.
type RatingCell struct {
	Label string
	Rep   metrics.Report
	Env   study.Environment
}

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

// ABCellStats is the streamed aggregate of one A/B cell.
type ABCellStats struct {
	Label string
	// VotesA counts votes for the supposedly faster variant (side-folded).
	VotesA, VotesB, VotesNone int64
	// Confidence and Replays stream the 1..5 confidence answers and replay
	// counts.
	Confidence stats.Welford
	Replays    stats.Welford
}

// Noticed derives the notice-share counter from the vote tallies: every
// vote other than "no difference" counts as noticed, so the Wilson CI can
// never drift from the printed shares.
func (c *ABCellStats) Noticed() stats.Binomial {
	var b stats.Binomial
	b.AddCounts(c.VotesA+c.VotesB, c.N())
	return b
}

// N returns the number of votes aggregated into the cell.
func (c *ABCellStats) N() int64 { return c.VotesA + c.VotesB + c.VotesNone }

// ShareA returns the vote share of the supposedly faster variant.
func (c *ABCellStats) ShareA() float64 {
	if n := c.N(); n > 0 {
		return float64(c.VotesA) / float64(n)
	}
	return 0
}

// ShareNone returns the "no difference" share.
func (c *ABCellStats) ShareNone() float64 {
	if n := c.N(); n > 0 {
		return float64(c.VotesNone) / float64(n)
	}
	return 0
}

// ShareB returns the vote share of the supposedly slower variant.
func (c *ABCellStats) ShareB() float64 {
	if n := c.N(); n > 0 {
		return float64(c.VotesB) / float64(n)
	}
	return 0
}

// Merge folds another cell's aggregates in (fixed call order keeps merges
// deterministic).
func (c *ABCellStats) Merge(o *ABCellStats) {
	c.VotesA += o.VotesA
	c.VotesB += o.VotesB
	c.VotesNone += o.VotesNone
	c.Confidence.Merge(o.Confidence)
	c.Replays.Merge(o.Replays)
}

// ratingHistBins gives granularity-1 bins over the 10..70 scale.
const ratingHistBins = study.RatingMax - study.RatingMin

// RatingCellStats is the streamed aggregate of one rating cell.
type RatingCellStats struct {
	Label string
	Env   study.Environment
	// Speed and Quality stream the two questionnaire answers.
	Speed   stats.Welford
	Quality stats.Welford
	// Hist streams the speed votes for median/tail quantiles.
	Hist *stats.StreamHist
}

// NewRatingCellStats returns an empty aggregate whose histogram is
// compatible with the ones RunRating produces — use it wherever cells are
// merged outside this package (StreamHist.Merge panics on a bin mismatch).
func NewRatingCellStats(label string, env study.Environment) RatingCellStats {
	return RatingCellStats{
		Label: label, Env: env,
		Hist: stats.NewStreamHist(study.RatingMin, study.RatingMax, ratingHistBins),
	}
}

// Merge folds another cell's aggregates in.
func (c *RatingCellStats) Merge(o *RatingCellStats) {
	c.Speed.Merge(o.Speed)
	c.Quality.Merge(o.Quality)
	c.Hist.Merge(o.Hist)
}

// ABResult is a completed A/B population run.
type ABResult struct {
	Cells        []ABCellStats // index-aligned with the input cells
	Participants int           // pre-filter population
	Kept         int64         // participants who survived conformance
	Votes        int64
	Funnel       conformance.Funnel // zero unless cfg.Conformance
	Shards       int
}

// RatingResult is a completed rating population run.
type RatingResult struct {
	Cells        []RatingCellStats
	Participants int
	Kept         int64
	Votes        int64
	Funnel       conformance.Funnel
	Shards       int
}

// shardSeed derives shard i's independent seed.
func shardSeed(master int64, shard int) int64 {
	return core.DeriveSeed(master, fmt.Sprintf("pop-shard/%d", shard))
}

// shardSeeds precomputes every shard's seed, so the shard loop itself does
// no per-shard string formatting.
func shardSeeds(master int64, shards int) []int64 {
	seeds := make([]int64, shards)
	for i := range seeds {
		seeds[i] = shardSeed(master, i)
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

// runShards executes fn for every shard index on a bounded worker pool.
// fn must be pure per shard; results are consumed afterwards in shard order.
// worker identifies the pool slot running the shard (always 0 when
// sequential), so fn can reuse per-worker scratch — shard results must not
// depend on which worker ran them, which holds as long as the scratch is
// (re)initialized from the shard seed alone. Cancelling ctx stops
// dispatching new shards and fn is expected to return ctx.Err() from inside
// its participant loop, so a cancelled million-vote run winds down within
// one participant's worth of work per worker. The first non-nil fn error
// (in completion order) is returned; on cancellation every in-flight fn
// observes the same ctx, so that error is ctx.Err().
func runShards(ctx context.Context, shards, workers int, fn func(shard, worker int) error) error {
	if workers <= 1 {
		for i := 0; i < shards; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i, 0); err != nil {
				return err
			}
		}
		return nil
	}
	jobs := make(chan int)
	var (
		wg     sync.WaitGroup
		errMu  sync.Mutex
		runErr error
	)
	setErr := func(err error) {
		errMu.Lock()
		if runErr == nil {
			runErr = err
		}
		errMu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					continue // drain without running
				}
				if err := fn(i, w); err != nil {
					setErr(err)
				}
			}
		}(w)
	}
feed:
	for i := 0; i < shards; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return runErr
}

// popWorker is the pooled per-worker scratch of the shard loop: one rng
// (reseeded from the shard seed at every shard, so results stay independent
// of worker assignment), one reusable participant model, one reusable
// behaviour session, and the condition-permutation scratch. Everything a
// participant iteration touches lives here or in the shard's slab-backed
// aggregates — the loop itself allocates nothing.
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

// abShard holds one shard's private aggregates.
type abShard struct {
	cells []ABCellStats
	totals
}

// RunAB simulates the A/B study over the cells. Cancelling ctx aborts the
// run and returns ctx.Err(); shard aggregates are private until the final
// fold, so an aborted run leaves no partial state behind.
func RunAB(ctx context.Context, cells []ABCell, cfg Config) (ABResult, error) {
	acc, err := NewABAccumulator(cells, cfg)
	if err != nil {
		return ABResult{}, err
	}
	shards, err := runABShards(ctx, cells, acc.cfg, 0, acc.cfg.Shards)
	if err != nil {
		return ABResult{}, err
	}
	for i := range shards {
		acc.absorb(&shards[i])
	}
	return acc.Result(), nil
}

// runABShards computes the private aggregates of shards [first, last) — the
// one code path every A/B run goes through, whether it spans the full shard
// space (RunAB) or a sub-range a fabric worker was handed (RunABRange).
// Shard indices are absolute: shard i draws seed shardSeed(cfg.Seed, i) and
// participants shardRange(..., i) no matter which sub-range (or node) runs
// it, which is the fabric's determinism contract. cfg must already be
// normalized via withDefaults.
func runABShards(ctx context.Context, cells []ABCell, cfg Config, first, last int) ([]abShard, error) {
	votesPer := cfg.VotesPerParticipant
	if votesPer <= 0 {
		votesPer = study.PlanFor(cfg.Group).ABVideos
	}

	// One slab backs every shard's cell aggregates; per-worker scratch is
	// pooled and reseeded per shard, so the participant loop below allocates
	// nothing no matter the population size.
	n := last - first
	shards := make([]abShard, n)
	cellSlab := make([]ABCellStats, n*len(cells))
	seeds := shardSeeds(cfg.Seed, cfg.Shards)
	workers := cfg.Workers
	if workers > n {
		workers = n
	}
	pool := newPopWorkers(workers, len(cells))
	err := runShards(ctx, n, workers, func(ri, wi int) error {
		si := first + ri
		sh := &shards[ri]
		sh.cells = cellSlab[ri*len(cells) : (ri+1)*len(cells) : (ri+1)*len(cells)]
		ws := &pool[wi]
		rng := ws.rng
		rng.Seed(seeds[si])
		m := &ws.model // reused across the shard's participants
		lo, hi := shardRange(cfg.Participants, cfg.Shards, si)
		for p := lo; p < hi; p++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if cfg.Conformance {
				participant.BehaviourInto(&ws.session, cfg.Group, conformance.AB, rng)
				if !sh.funnel.Observe(&ws.session) {
					continue
				}
			}
			sh.kept++
			m.Reinit(cfg.Group, rng)
			for _, ci := range drawDistinct(rng, ws.perm, len(cells), votesPer) {
				cell := &cells[ci]
				vote, confidence, replays := m.ABVote(cell.Left, cell.Right)
				st := &sh.cells[ci]
				sh.votes++
				st.Confidence.Add(float64(confidence))
				st.Replays.Add(float64(replays))
				switch vote {
				case study.VoteNoDifference:
					st.VotesNone++
				case study.VoteLeft:
					if cell.AOnLeft {
						st.VotesA++
					} else {
						st.VotesB++
					}
				case study.VoteRight:
					if cell.AOnLeft {
						st.VotesB++
					} else {
						st.VotesA++
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return shards, nil
}

// ratingShard holds one shard's private aggregates.
type ratingShard struct {
	cells []RatingCellStats
	totals
}

// newRatingShards builds n empty shards of nc cells backed by three slabs —
// cells, histogram structs and one flat bin array — instead of three
// allocations per shard × cell.
func newRatingShards(n, nc int) []ratingShard {
	shards := make([]ratingShard, n)
	cellSlab := make([]RatingCellStats, n*nc)
	histSlab := make([]stats.StreamHist, n*nc)
	binSlab := make([]int64, n*nc*ratingHistBins)
	for k := range cellSlab {
		histSlab[k].Init(study.RatingMin, study.RatingMax, binSlab[k*ratingHistBins:(k+1)*ratingHistBins:(k+1)*ratingHistBins])
		cellSlab[k].Hist = &histSlab[k]
	}
	for i := range shards {
		shards[i].cells = cellSlab[i*nc : (i+1)*nc : (i+1)*nc]
	}
	return shards
}

// RunRating simulates the rating study over the cells. Participants rate
// their session plan's number of videos per environment (or
// VotesPerParticipant spread over the environments that have cells), drawn
// from that environment's cells. Cancelling ctx aborts the run and returns
// ctx.Err(), leaving no partial state behind.
func RunRating(ctx context.Context, cells []RatingCell, cfg Config) (RatingResult, error) {
	acc, err := newRatingAccumulator(cells, cfg)
	if err != nil {
		return RatingResult{}, err
	}
	shards, err := runRatingShards(ctx, cells, acc.cfg, 0, acc.cfg.Shards)
	if err != nil {
		return RatingResult{}, err
	}
	for i := range shards {
		acc.absorb(&shards[i])
	}
	return acc.Result(), nil
}

// runRatingShards computes the private aggregates of shards [first, last) —
// the shared code path of full runs and fabric sub-range runs, with the same
// absolute-shard seeding contract as runABShards. cfg must already be
// normalized via withDefaults.
func runRatingShards(ctx context.Context, cells []RatingCell, cfg Config, first, last int) ([]ratingShard, error) {
	// Environment-local cell indices, in fixed environment order.
	byEnv := map[study.Environment][]int{}
	for i, c := range cells {
		byEnv[c.Env] = append(byEnv[c.Env], i)
	}
	plan := study.PlanFor(cfg.Group)
	perEnv := map[study.Environment]int{
		study.AtWork:   plan.RatingWork,
		study.FreeTime: plan.RatingFree,
		study.OnPlane:  plan.RatingPlane,
	}
	if cfg.VotesPerParticipant > 0 {
		// Split the budget over the populated environments in fixed order,
		// spreading the remainder, so the per-participant total never
		// exceeds VotesPerParticipant.
		populated := 0
		for _, env := range study.Environments() {
			if len(byEnv[env]) > 0 {
				populated++
			}
		}
		base, rem := cfg.VotesPerParticipant/populated, cfg.VotesPerParticipant%populated
		for _, env := range study.Environments() {
			if len(byEnv[env]) == 0 {
				perEnv[env] = 0
				continue
			}
			perEnv[env] = base
			if rem > 0 {
				perEnv[env]++
				rem--
			}
		}
	}
	maxEnvCells := 0
	for _, idxs := range byEnv {
		if len(idxs) > maxEnvCells {
			maxEnvCells = len(idxs)
		}
	}

	// Worker scratch is pooled and reseeded per shard, so the participant
	// loop allocates nothing.
	n := last - first
	shards := newRatingShards(n, len(cells))
	seeds := shardSeeds(cfg.Seed, cfg.Shards)
	workers := cfg.Workers
	if workers > n {
		workers = n
	}
	pool := newPopWorkers(workers, maxEnvCells)
	envs := study.Environments() // hoisted: the accessor returns a fresh slice
	err := runShards(ctx, n, workers, func(ri, wi int) error {
		si := first + ri
		sh := &shards[ri]
		ws := &pool[wi]
		rng := ws.rng
		rng.Seed(seeds[si])
		m := &ws.model // reused across the shard's participants
		lo, hi := shardRange(cfg.Participants, cfg.Shards, si)
		for p := lo; p < hi; p++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if cfg.Conformance {
				participant.BehaviourInto(&ws.session, cfg.Group, conformance.Rating, rng)
				if !sh.funnel.Observe(&ws.session) {
					continue
				}
			}
			sh.kept++
			m.Reinit(cfg.Group, rng)
			for _, env := range envs { // fixed order: determinism
				idxs := byEnv[env]
				if len(idxs) == 0 {
					continue
				}
				for _, pick := range drawDistinct(rng, ws.perm, len(idxs), perEnv[env]) {
					ci := idxs[pick]
					speed, quality := m.Rate(cells[ci].Rep, env)
					st := &sh.cells[ci]
					sh.votes++
					st.Speed.Add(speed)
					st.Quality.Add(quality)
					st.Hist.Add(speed)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return shards, nil
}
