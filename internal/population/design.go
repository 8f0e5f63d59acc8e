package population

import (
	"context"
	"fmt"

	"repro/internal/conformance"
	"repro/internal/metrics"
	"repro/internal/participant"
	"repro/internal/stats"
	"repro/internal/study"
)

// This file holds the paper's two study designs, each as what it supplies to
// the one engine: its stimulus cells, its cell aggregate with merge, wire
// export and validated import, how a run's cells are built, and one
// participant's votes. Each design's exported entry points are the generic
// engine instantiated at its cell aggregate.

// ABCell is one A/B stimulus: two page-load reports shown side by side.
type ABCell struct {
	Label string // e.g. "QUIC vs. TCP | congested-wifi | etsy.com"
	Left  metrics.Report
	Right metrics.Report
	// AOnLeft records which side carries the supposedly faster variant, so
	// per-cell tallies can be folded back into A-vs-B shares.
	AOnLeft bool
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

// ABCellState is the wire form of one shard's ABCellStats.
type ABCellState struct {
	VotesA     int64              `json:"votes_a"`
	VotesB     int64              `json:"votes_b"`
	VotesNone  int64              `json:"votes_none"`
	Confidence stats.WelfordState `json:"confidence"`
	Replays    stats.WelfordState `json:"replays"`
}

func (c *ABCellStats) state() ABCellState {
	return ABCellState{
		VotesA:     c.VotesA,
		VotesB:     c.VotesB,
		VotesNone:  c.VotesNone,
		Confidence: c.Confidence.State(),
		Replays:    c.Replays.State(),
	}
}

func (c *ABCellStats) load(st *ABCellState, shard, cell int, kept int64) (int64, error) {
	n := st.VotesA + st.VotesB + st.VotesNone
	for _, v := range [...]int64{st.VotesA, st.VotesB, st.VotesNone, n} {
		if err := checkCellVotes(shard, cell, v, kept); err != nil {
			return 0, err
		}
	}
	if st.Confidence.N != n || st.Replays.N != n {
		return 0, fmt.Errorf("population: shard %d cell %d has %d votes but confidence n=%d, replays n=%d",
			shard, cell, n, st.Confidence.N, st.Replays.N)
	}
	c.VotesA, c.VotesB, c.VotesNone = st.VotesA, st.VotesB, st.VotesNone
	c.Confidence.Import(st.Confidence)
	c.Replays.Import(st.Replays)
	return n, nil
}

// abDesign is the A/B study: each participant votes on votesPer distinct
// cells drawn from all of them.
type abDesign struct {
	cells []ABCell
	// stimuli holds each cell's perceptual evidence for cfg.Group, computed
	// once per design and shared read-only by every worker; aOnLeft holds
	// each cell's AOnLeft, so the vote loop never reads the cells.
	stimuli  []participant.ABStimulus
	aOnLeft  []bool
	votesPer int
}

func newABDesign(cells []ABCell, cfg Config) *abDesign {
	votesPer := cfg.VotesPerParticipant
	if votesPer <= 0 {
		votesPer = study.PlanFor(cfg.Group).ABVideos
	}
	d := &abDesign{
		cells:    cells,
		stimuli:  make([]participant.ABStimulus, len(cells)),
		aOnLeft:  make([]bool, len(cells)),
		votesPer: votesPer,
	}
	for i := range cells {
		d.stimuli[i] = participant.NewABStimulus(cfg.Group, cells[i].Left, cells[i].Right)
		d.aOnLeft[i] = cells[i].AOnLeft
	}
	return d
}

func (d *abDesign) kind() conformance.StudyKind { return conformance.AB }

func (d *abDesign) ncells() int { return len(d.cells) }

func (d *abDesign) newCells(n int) []ABCellStats {
	out := make([]ABCellStats, n*len(d.cells))
	for k := range out {
		out[k].Label = d.cells[k%len(d.cells)].Label
	}
	return out
}

func (d *abDesign) vote(ws *popWorker, cells []ABCellStats) int64 {
	picks := ws.drawDistinct(len(d.cells), d.votesPer)
	for _, ci := range picks {
		vote, confidence, replays := ws.model.ABVote(&d.stimuli[ci])
		st := &cells[ci]
		st.Confidence.Add(float64(confidence))
		st.Replays.Add(float64(replays))
		switch vote {
		case study.VoteNoDifference:
			st.VotesNone++
		case study.VoteLeft:
			if d.aOnLeft[ci] {
				st.VotesA++
			} else {
				st.VotesB++
			}
		case study.VoteRight:
			if d.aOnLeft[ci] {
				st.VotesB++
			} else {
				st.VotesA++
			}
		}
	}
	return int64(len(picks))
}

// ABResult is a completed A/B population run.
type ABResult = result[ABCellStats]

// ABShardState is the wire form of one A/B shard's private aggregates.
type ABShardState = shardState[ABCellState]

// ABAccumulator folds the ascending shard prefix of one A/B population run.
// Not safe for concurrent use.
type ABAccumulator = accumulator[ABCellStats, ABCellState, *ABCellStats]

// NewABAccumulator builds an accumulator for a run over cells with the
// normalized form of cfg.
func NewABAccumulator(cells []ABCell, cfg Config) (*ABAccumulator, error) {
	return newAccumulator[ABCellStats, ABCellState](newABDesign(cells, cfg), cfg)
}

// RunAB simulates the A/B study over the cells. Cancelling ctx aborts the
// run and returns ctx.Err(), leaving no partial state behind.
func RunAB(ctx context.Context, cells []ABCell, cfg Config) (ABResult, error) {
	return run[ABCellStats, ABCellState](ctx, newABDesign(cells, cfg), cfg)
}

// RunABRange computes the A/B aggregates of the shards in r only, returning
// one wire-encodable state per shard in ascending shard order.
func RunABRange(ctx context.Context, cells []ABCell, cfg Config, r ShardRange) ([]ABShardState, error) {
	return runRange[ABCellStats, ABCellState](ctx, newABDesign(cells, cfg), cfg, r)
}

// ReduceAB folds wire states covering shards 0..Shards-1 in ascending order
// into the result RunAB would have computed locally.
func ReduceAB(cells []ABCell, cfg Config, states []ABShardState) (ABResult, error) {
	return reduce[ABCellStats, ABCellState](newABDesign(cells, cfg), cfg, states)
}

// RatingCell is one rating stimulus: a single page-load report rated under
// an environment framing.
type RatingCell struct {
	Label string
	Rep   metrics.Report
	Env   study.Environment
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

// RatingCellState is the wire form of one shard's RatingCellStats.
type RatingCellState struct {
	Speed   stats.WelfordState    `json:"speed"`
	Quality stats.WelfordState    `json:"quality"`
	Hist    stats.StreamHistState `json:"hist"`
}

func (c *RatingCellStats) state() RatingCellState {
	return RatingCellState{Speed: c.Speed.State(), Quality: c.Quality.State(), Hist: c.Hist.State()}
}

func (c *RatingCellStats) load(st *RatingCellState, shard, cell int, kept int64) (int64, error) {
	n := st.Speed.N
	if err := checkCellVotes(shard, cell, n, kept); err != nil {
		return 0, err
	}
	if st.Quality.N != n || st.Hist.N != n {
		return 0, fmt.Errorf("population: shard %d cell %d has %d votes but quality n=%d, histogram n=%d",
			shard, cell, n, st.Quality.N, st.Hist.N)
	}
	if err := c.Hist.Import(st.Hist); err != nil {
		return 0, fmt.Errorf("population: shard %d cell %d: %w", shard, cell, err)
	}
	c.Speed.Import(st.Speed)
	c.Quality.Import(st.Quality)
	return n, nil
}

// ratingDesign is the rating study: each participant rates, per environment
// in fixed order, votes distinct cells drawn from that environment's cells.
type ratingDesign struct {
	cells []RatingCell
	// stimuli holds each cell's rating anchor, computed once per design and
	// shared read-only by every worker.
	stimuli []participant.RatingStimulus
	envs    [study.OnPlane + 1]struct { // in study.Environments() order
		cells []int // indices into cells, ascending
		votes int
	}
}

// newRatingDesign groups the cells by environment. Participants rate their
// session plan's number of videos per environment, or VotesPerParticipant
// spread over the environments that have cells.
func newRatingDesign(cells []RatingCell, cfg Config) *ratingDesign {
	d := &ratingDesign{cells: cells, stimuli: make([]participant.RatingStimulus, len(cells))}
	for i := range cells {
		d.stimuli[i] = participant.NewRatingStimulus(cells[i].Rep, cells[i].Env)
	}
	plan := study.PlanFor(cfg.Group)
	votes := [...]int{study.AtWork: plan.RatingWork, study.FreeTime: plan.RatingFree, study.OnPlane: plan.RatingPlane}
	byEnv := make([]int, 0, len(cells))
	populated := 0
	for i, env := range study.Environments() {
		start := len(byEnv)
		for ci := range cells {
			if cells[ci].Env == env {
				byEnv = append(byEnv, ci)
			}
		}
		g := &d.envs[i]
		g.cells, g.votes = byEnv[start:], votes[env]
		if len(g.cells) > 0 {
			populated++
		}
	}
	if cfg.VotesPerParticipant > 0 && populated > 0 {
		// Split the budget over the populated environments in fixed order,
		// spreading the remainder, so the per-participant total never
		// exceeds VotesPerParticipant.
		base, rem := cfg.VotesPerParticipant/populated, cfg.VotesPerParticipant%populated
		for i := range d.envs {
			g := &d.envs[i]
			g.votes = 0
			if len(g.cells) == 0 {
				continue
			}
			g.votes = base
			if rem > 0 {
				g.votes++
				rem--
			}
		}
	}
	return d
}

func (d *ratingDesign) kind() conformance.StudyKind { return conformance.Rating }

func (d *ratingDesign) ncells() int { return len(d.cells) }

// newCells builds the aggregates over three slabs — cells, histogram structs
// and one flat bin array — instead of three allocations per cell.
func (d *ratingDesign) newCells(n int) []RatingCellStats {
	out := make([]RatingCellStats, n*len(d.cells))
	hists := make([]stats.StreamHist, len(out))
	bins := make([]int64, len(out)*ratingHistBins)
	for k := range out {
		c := &d.cells[k%len(d.cells)]
		hists[k].Init(study.RatingMin, study.RatingMax, bins[k*ratingHistBins:(k+1)*ratingHistBins:(k+1)*ratingHistBins])
		out[k] = RatingCellStats{Label: c.Label, Env: c.Env, Hist: &hists[k]}
	}
	return out
}

func (d *ratingDesign) vote(ws *popWorker, cells []RatingCellStats) (votes int64) {
	for i := range d.envs { // fixed order: determinism
		g := &d.envs[i]
		if len(g.cells) == 0 {
			continue
		}
		for _, pick := range ws.drawDistinct(len(g.cells), g.votes) {
			ci := g.cells[pick]
			speed, quality := ws.model.Rate(&d.stimuli[ci])
			st := &cells[ci]
			st.Speed.Add(speed)
			st.Quality.Add(quality)
			st.Hist.Add(speed)
			votes++
		}
	}
	return votes
}

// RatingResult is a completed rating population run.
type RatingResult = result[RatingCellStats]

// RatingShardState is the wire form of one rating shard's private
// aggregates.
type RatingShardState = shardState[RatingCellState]

// RunRating simulates the rating study over the cells; see newRatingDesign
// for what each participant rates. Cancelling ctx aborts the run and
// returns ctx.Err(), leaving no partial state behind.
func RunRating(ctx context.Context, cells []RatingCell, cfg Config) (RatingResult, error) {
	return run[RatingCellStats, RatingCellState](ctx, newRatingDesign(cells, cfg), cfg)
}

// RunRatingRange is RunABRange's counterpart for the rating design.
func RunRatingRange(ctx context.Context, cells []RatingCell, cfg Config, r ShardRange) ([]RatingShardState, error) {
	return runRange[RatingCellStats, RatingCellState](ctx, newRatingDesign(cells, cfg), cfg, r)
}

// ReduceRating is ReduceAB's counterpart for the rating design.
func ReduceRating(cells []RatingCell, cfg Config, states []RatingShardState) (RatingResult, error) {
	return reduce[RatingCellStats, RatingCellState](newRatingDesign(cells, cfg), cfg, states)
}
