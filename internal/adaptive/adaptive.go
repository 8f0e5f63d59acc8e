// Package adaptive wraps the population engine with sequential stopping and
// bandit-driven budget allocation: a grid of A/B cells runs in deterministic
// ROUNDS of whole shards, each cell's noticeability share is tested against
// a threshold with an always-valid confidence sequence
// (stats.ConfidenceSequence) at every round boundary, and the moment a
// cell's decision locks — interval entirely above or below the threshold,
// total error budget α — the cell stops and releases the rest of its vote
// budget to the still-undecided cells via a Whittle-style index policy.
//
// Determinism is the design constraint everything else bends around:
//
//   - The allocation unit is a WHOLE SHARD of the cell's own population
//     config. Shard seeds are absolute (core.DeriveSeed("pop-shard/i")), so
//     a cell that stops after k shards holds exactly the state a full run
//     would have held after those same shards — the truncation invariant
//     pinned in internal/population — and a grant can be computed by any
//     worker of the distributed fabric via the same RunABRange contract the
//     non-adaptive studies ship over.
//   - Decisions and allocations are derived ONLY from round-boundary
//     accumulator states and the look counter: never from wall clock, map
//     order, or scheduling. Runs are byte-identical at any worker count and
//     whether grants execute in process or across the fabric.
//   - The bandit index is a deterministic function of each cell's current
//     aggregates: priority = expected decision information per vote,
//     approximated by the reciprocal of the estimated votes still needed to
//     separate the Wilson interval from the threshold. Freed budget flows
//     to the cells closest to locking a decision; hopeless near-threshold
//     cells drain last and exhaust into a point estimate, exactly matching
//     what a fixed-budget run would have reported.
package adaptive

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"repro/internal/population"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// CellSpec is one adaptive cell: a single A/B comparison with its own
// canonical population config (each cell draws from its own seed stream, so
// cells can stop independently without disturbing one another's bytes).
type CellSpec struct {
	Label string
	// Cells must hold exactly one A/B cell; the slice form mirrors the
	// population engine's shard-range API it is handed to.
	Cells  []population.ABCell
	Config population.Config
}

// Config is the sequential-stopping and allocation policy.
type Config struct {
	// Alpha is the per-cell total error budget of the confidence sequence.
	// Zero defaults to 0.05.
	Alpha float64
	// Threshold is the noticeability share the decision tests against.
	// Zero defaults to 0.5 (the crossover pop-sweep locates).
	Threshold float64
	// MinShards is the bootstrap grant every cell receives in round 1
	// before any decision is attempted. Zero defaults to 2.
	MinShards int
	// RoundShards scales the per-round budget: each round after the first
	// grants RoundShards × (number of cells) shards, steered by the index
	// policy. Zero defaults to 2.
	RoundShards int
	// Workers overrides every cell config's worker count (execution
	// parallelism only — never part of the decision state). Zero keeps
	// each config's own setting.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	if c.Threshold == 0 {
		c.Threshold = 0.5
	}
	if c.MinShards == 0 {
		c.MinShards = 2
	}
	if c.RoundShards == 0 {
		c.RoundShards = 2
	}
	return c
}

// Outcome is a cell's terminal state.
type Outcome int

const (
	// Undecided: the cell is still running (never terminal in a Result).
	Undecided Outcome = iota
	// Noticeable: the confidence sequence locked the share above the
	// threshold.
	Noticeable
	// NotNoticeable: the confidence sequence locked the share below the
	// threshold.
	NotNoticeable
	// Exhausted: the full budget ran without a lock; the cell reports its
	// fixed-budget point estimate, exactly as a non-adaptive run would.
	Exhausted
)

func (o Outcome) String() string {
	switch o {
	case Noticeable:
		return "noticeable"
	case NotNoticeable:
		return "not-noticeable"
	case Exhausted:
		return "exhausted"
	default:
		return "undecided"
	}
}

// CellResult is one cell's outcome with its partial-budget aggregates.
type CellResult struct {
	Label   string
	Outcome Outcome
	// Round is the 1-based round at which the outcome locked (or the last
	// round, for Exhausted cells).
	Round int
	// Looks is how many confidence-sequence looks the cell spent.
	Looks int
	// ShardsRun / ShardsTotal count the granted prefix vs the full budget.
	ShardsRun   int
	ShardsTotal int
	// Votes and Kept are the simulated prefix's counters; VotesBudget is
	// the pre-filter vote budget a full run would have drawn
	// (participants × votes per participant).
	Votes       int64
	Kept        int64
	VotesBudget int64
	// Noticed is the deciding always-valid interval (for Exhausted cells,
	// the final look's interval). Its Level is the spent per-look level.
	Noticed stats.Interval
	// Stats is the cell's cumulative aggregate at stop — by the truncation
	// invariant, bit-identical to a full run's state at the same votes.
	Stats population.ABCellStats
}

// Result is a completed adaptive run.
type Result struct {
	Cells  []CellResult
	Rounds int
	// Votes sums the simulated votes across cells; VotesBudget sums the
	// full fixed budgets. The difference is the run's saving.
	Votes       int64
	VotesBudget int64
}

// VotesSaved returns the budget the run did not have to simulate.
func (r Result) VotesSaved() int64 { return r.VotesBudget - r.Votes }

// Grant computes one cell's shard-range grant; the distributed fabric
// supplies one that ships the call to its worker pool. A Grant must honor
// the absolute-shard contract: the returned states are the canonical bytes
// of those shards regardless of where they ran.
type Grant func(ctx context.Context, cell int, r population.ShardRange) ([]population.ABShardState, error)

// cellState is the engine's per-cell round-boundary state.
type cellState struct {
	acc     *population.ABAccumulator
	cs      stats.ConfidenceSequence
	outcome Outcome
	round   int
	noticed stats.Interval // most recent look's always-valid interval
	// votesPerShard estimates a shard's pre-filter vote yield for the
	// index policy and budget accounting.
	votesPerShard float64
	budget        int64 // pre-filter vote budget of the full run
}

// Run executes the adaptive study, dispatching shard grants through grant;
// a nil grant runs them in process with population.RunABRange. Decisions
// derive only from round-boundary accumulator states, so the result is
// identical for any grant that honors the absolute-shard contract.
func Run(ctx context.Context, specs []CellSpec, cfg Config, grant Grant) (Result, error) {
	if len(specs) == 0 {
		return Result{}, fmt.Errorf("adaptive: no cells")
	}
	cfg = cfg.withDefaults()
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
		return Result{}, fmt.Errorf("adaptive: alpha %v outside (0, 1)", cfg.Alpha)
	}
	if cfg.Threshold <= 0 || cfg.Threshold >= 1 {
		return Result{}, fmt.Errorf("adaptive: threshold %v outside (0, 1)", cfg.Threshold)
	}
	run := make([]CellSpec, len(specs))
	states := make([]cellState, len(specs))
	for i, s := range specs {
		if len(s.Cells) != 1 {
			return Result{}, fmt.Errorf("adaptive: cell %d (%s) has %d A/B cells, want exactly 1", i, s.Label, len(s.Cells))
		}
		s.Config = s.Config.Normalize()
		if cfg.Workers != 0 {
			s.Config.Workers = cfg.Workers
			s.Config = s.Config.Normalize()
		}
		run[i] = s
		acc, err := population.NewABAccumulator(s.Cells, s.Config)
		if err != nil {
			return Result{}, fmt.Errorf("adaptive: cell %d (%s): %w", i, s.Label, err)
		}
		cs, err := stats.NewConfidenceSequence(cfg.Alpha)
		if err != nil {
			return Result{}, fmt.Errorf("adaptive: %w", err)
		}
		votesPer := int64(s.Config.VotesPerParticipant)
		if votesPer <= 0 {
			// The session plan decides per participant; one vote per
			// participant is the engine's floor and pop-sweep's actual
			// yield, which keeps the budget estimate conservative.
			votesPer = 1
		}
		states[i] = cellState{
			acc:           acc,
			cs:            cs,
			votesPerShard: float64(s.Config.Participants) * float64(votesPer) / float64(s.Config.Shards),
			budget:        int64(s.Config.Participants) * votesPer,
		}
	}
	if grant == nil {
		grant = func(ctx context.Context, cell int, r population.ShardRange) ([]population.ABShardState, error) {
			return population.RunABRange(ctx, run[cell].Cells, run[cell].Config, r)
		}
	}

	// Spans stay at round/grant granularity — the engine's own decision
	// cadence — never per-vote; a disabled trace context no-ops them all.
	tc := telemetry.FromContext(ctx)
	rounds := 0
	for {
		grants := allocate(states, cfg, rounds == 0)
		if !anyGrant(grants) {
			break
		}
		rounds++
		rsp := tc.Start("adaptive_round")
		rsp.Attr("round", strconv.Itoa(rounds))
		// Execute the round's grants in cell order. Each grant extends the
		// cell's absorbed prefix; the grant may parallelize internally.
		for ci := range states {
			st := &states[ci]
			if grants[ci] == 0 {
				continue
			}
			lo := st.acc.Shards()
			r := population.ShardRange{Lo: lo, Hi: lo + grants[ci]}
			gsp := tc.Tracer.Start(tc.TraceID, "grant", rsp.ID())
			gsp.Attr("cell", strconv.Itoa(ci))
			gsp.Attr("shards", r.String())
			grantCtx := ctx
			if gsp != nil {
				// Grants dispatched over the fabric parent their sub-job
				// spans under this grant.
				grantCtx = telemetry.NewContext(ctx, telemetry.TraceContext{Tracer: tc.Tracer, TraceID: tc.TraceID, Parent: gsp.ID()})
			}
			shardStates, err := grant(grantCtx, ci, r)
			gsp.EndErr(err)
			if err != nil {
				rsp.EndErr(err)
				return Result{}, fmt.Errorf("adaptive: cell %d (%s) shards %s: %w", ci, run[ci].Label, r, err)
			}
			if err := st.acc.Absorb(shardStates); err != nil {
				rsp.EndErr(err)
				return Result{}, fmt.Errorf("adaptive: cell %d (%s): %w", ci, run[ci].Label, err)
			}
		}
		// Round barrier: take one look per freshly-grown undecided cell,
		// in cell order.
		for ci := range states {
			st := &states[ci]
			if st.outcome != Undecided || grants[ci] == 0 {
				continue
			}
			iv, err := st.cs.LookBinomial(st.acc.Cell(0).Noticed())
			if err != nil {
				// No decided votes yet (everything filtered or abstained):
				// no look is spent; the cell keeps drawing budget.
				if st.acc.Done() {
					st.outcome = Exhausted
					st.round = rounds
				}
				continue
			}
			switch {
			case iv.Lo > cfg.Threshold:
				st.outcome = Noticeable
			case iv.Hi < cfg.Threshold:
				st.outcome = NotNoticeable
			case st.acc.Done():
				st.outcome = Exhausted
			}
			st.noticed = iv
			if st.outcome != Undecided {
				st.round = rounds
			}
		}
		if rsp != nil {
			decided := 0
			for ci := range states {
				if states[ci].outcome != Undecided {
					decided++
				}
			}
			rsp.Attr("decided_cells", strconv.Itoa(decided))
			rsp.End()
		}
		if allDecided(states) {
			break
		}
	}

	res := Result{Cells: make([]CellResult, len(states)), Rounds: rounds}
	stoppedEarly := 0
	for ci := range states {
		st := &states[ci]
		if st.outcome == Undecided {
			// Unreachable: the loop only exits with every cell decided or
			// every budget exhausted (allocate then grants nothing and an
			// exhausted undecided cell is marked Exhausted above).
			st.outcome = Exhausted
			st.round = rounds
		}
		cr := CellResult{
			Label:       run[ci].Label,
			Outcome:     st.outcome,
			Round:       st.round,
			Looks:       int(st.cs.Looks()),
			ShardsRun:   st.acc.Shards(),
			ShardsTotal: st.acc.Config().Shards,
			Votes:       st.acc.Votes(),
			Kept:        st.acc.Kept(),
			VotesBudget: st.budget,
			Noticed:     st.noticed,
			Stats:       *st.acc.Cell(0),
		}
		if cr.ShardsRun < cr.ShardsTotal {
			stoppedEarly++
		}
		res.Cells[ci] = cr
		res.Votes += cr.Votes
		// Budget accounting uses the pre-filter population: what a full
		// fixed-budget run would have simulated.
		res.VotesBudget += cr.VotesBudget
	}
	if c, _ := ctx.Value(countersKey{}).(*Counters); c != nil {
		c.runs.Add(1)
		c.rounds.Add(int64(res.Rounds))
		c.cellsStoppedEarly.Add(int64(stoppedEarly))
		c.votesSimulated.Add(res.Votes)
		c.votesSaved.Add(res.VotesSaved())
	}
	return res, nil
}

// allocate computes the round's shard grants. Round 1 bootstraps MinShards
// into every cell; later rounds steer RoundShards × cells whole shards to
// the undecided cells by the index policy, one shard at a time, so budget
// freed by stopped cells flows to whoever can convert it into a decision
// fastest. Pure function of round-boundary state — no randomness, no map
// iteration, ties broken by cell index.
func allocate(states []cellState, cfg Config, bootstrap bool) []int {
	grants := make([]int, len(states))
	if bootstrap {
		for i := range states {
			grants[i] = min(cfg.MinShards, remainingShards(&states[i]))
		}
		return grants
	}
	budget := cfg.RoundShards * len(states)
	for b := 0; b < budget; b++ {
		best, bestIdx := -1, 0.0
		for i := range states {
			st := &states[i]
			if st.outcome != Undecided || remainingShards(st) <= grants[i] {
				continue
			}
			idx := decisionIndex(st, cfg, grants[i])
			if best < 0 || idx > bestIdx {
				best, bestIdx = i, idx
			}
		}
		if best < 0 {
			break
		}
		grants[best]++
	}
	return grants
}

func remainingShards(st *cellState) int {
	return st.acc.Config().Shards - st.acc.Shards()
}

// decisionIndex is the Whittle-style priority: expected decision
// information per granted vote, approximated as the reciprocal of the
// estimated votes still needed before the Wilson interval separates from
// the threshold. Cells granted shards earlier in the same round see their
// pending votes counted, which spreads a round's budget instead of dumping
// it all on one cell.
func decisionIndex(st *cellState, cfg Config, pending int) float64 {
	cell := st.acc.Cell(0)
	noticed := cell.Noticed()
	n := float64(noticed.N()) + float64(pending)*st.votesPerShard
	if noticed.N() == 0 {
		// Nothing decided yet: maximal urgency, resolved by cell order.
		return math.Inf(1)
	}
	p := noticed.Share()
	gap := math.Abs(p - cfg.Threshold)
	const gapFloor = 0.005 // a dead-on-threshold cell still gets a finite need
	if gap < gapFloor {
		gap = gapFloor
	}
	// Wilson half-width ≈ z·sqrt(p(1−p)/n); the interval clears the
	// threshold when n ≳ z²·p(1−p)/gap². Use the first look's z as the
	// scale constant — the index only ranks cells, validity comes from the
	// confidence sequence.
	z := stats.NormalQuantile(1 - cfg.Alpha/2)
	need := z * z * p * (1 - p) / (gap * gap)
	deficit := need - n
	if deficit < 1 {
		deficit = 1
	}
	return 1 / deficit
}

func anyGrant(grants []int) bool {
	for _, g := range grants {
		if g > 0 {
			return true
		}
	}
	return false
}

func allDecided(states []cellState) bool {
	for i := range states {
		if states[i].outcome == Undecided {
			return false
		}
	}
	return true
}

// Counters is one server's adaptive telemetry: runs, rounds, cells stopped
// early, votes simulated and votes saved. Run counts into the Counters
// its context carries (NewContext) and nowhere otherwise.
type Counters struct {
	runs, rounds, cellsStoppedEarly, votesSimulated, votesSaved *telemetry.Counter
}

// NewCounters registers the adaptive counters in r.
func NewCounters(r *telemetry.Registry) *Counters {
	return &Counters{
		runs:              r.Counter("runs", "Adaptive studies completed."),
		rounds:            r.Counter("rounds", "Allocation rounds run by adaptive studies."),
		cellsStoppedEarly: r.Counter("cells_stopped_early", "Cells decided before running their full shard budget."),
		votesSimulated:    r.Counter("votes_simulated", "Votes simulated by adaptive studies."),
		votesSaved:        r.Counter("votes_saved", "Votes of the fixed-budget runs that adaptive stopping did not simulate."),
	}
}

type countersKey struct{}

// NewContext returns ctx carrying c, the counters Run counts into.
func NewContext(ctx context.Context, c *Counters) context.Context {
	return context.WithValue(ctx, countersKey{}, c)
}
