package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/population"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/study"
	"repro/internal/sweep"
)

// pop-sweep-adaptive is pop-sweep rebuilt on the adaptive subsystem: the
// same speed sweep over LTE with the same 25k-voter budget per step, but
// each step runs under sequential stopping (always-valid confidence
// sequences, α = 0.05) with a bandit allocator steering freed budget toward
// the still-undecided steps. It locates the same noticeability crossover
// with a fraction of the simulated votes; the easy steps (far from the 50%
// threshold) lock after a couple of shards while the near-threshold step
// drains most of its budget — or all of it, in which case it reports its
// fixed-budget point estimate exactly as pop-sweep would.
//
// Everything about the stimuli is shared with pop-sweep's construction:
// same factors, same MeanReport recordings, same per-step derived seeds,
// same per-step population config. That makes an adaptive step's aggregates
// a bit-exact truncated prefix of the corresponding full run (the
// truncation invariant in internal/population), which is also what lets
// the distributed fabric compute grants on any worker.

const popSweepAdaptiveName = "pop-sweep-adaptive"

// PopSweepAdaptiveConfig is the canonical stopping/allocation policy — part
// of the experiment's identity, since the policy shapes the byte stream.
func PopSweepAdaptiveConfig() adaptive.Config {
	return adaptive.Config{Alpha: 0.05, Threshold: 0.5, MinShards: 2, RoundShards: 2}
}

// popSweepAdaptiveCellConfigs returns the canonical per-step population
// configs given the experiment's derived seed. No testbed is needed — the
// step names depend only on the factor grid — so a fabric coordinator can
// verify an adaptive call is canonical for its tuple before shipping it.
func popSweepAdaptiveCellConfigs(seed int64) []population.Config {
	cfgs := make([]population.Config, len(popSweepFactors))
	for i, v := range popSweepFactors {
		net := sweep.Apply(simnet.LTE, sweep.Speed, v)
		cfgs[i] = population.Config{
			Group:               study.Microworker,
			Participants:        popSweepPanel,
			VotesPerParticipant: 1,
			Seed:                core.DeriveSeed(seed, net.Name),
		}
	}
	return cfgs
}

// PopSweepAdaptiveSpecs builds the canonical adaptive grid for a testbed
// and the experiment's derived seed — the shared construction the
// in-process experiment and fabric workers both run, so a worker's shard
// bytes are exactly the ones the coordinator folds.
func PopSweepAdaptiveSpecs(tb *core.Testbed, seed int64) ([]adaptive.CellSpec, error) {
	const protoA, protoB = "QUIC", "TCP"
	base := simnet.LTE
	reps := tb.Scale.Reps
	if reps > 2 {
		reps = 2 // the panel, not the recording count, carries the power here
	}
	cfgs := popSweepAdaptiveCellConfigs(seed)
	specs := make([]adaptive.CellSpec, 0, len(popSweepFactors))
	for i, v := range popSweepFactors {
		net := sweep.Apply(base, sweep.Speed, v)
		siA, repA := sweep.MeanReport(tb.Scale.Sites, net, protoA, reps, seed)
		siB, repB := sweep.MeanReport(tb.Scale.Sites, net, protoB, reps, seed)
		if siA == 0 || siB == 0 {
			return nil, fmt.Errorf("pop-sweep-adaptive: no complete loads at x%g", v)
		}
		specs = append(specs, adaptive.CellSpec{
			Label:  net.Name,
			Cells:  []population.ABCell{{Label: net.Name, Left: repA, Right: repB, AOnLeft: true}},
			Config: cfgs[i],
		})
	}
	return specs, nil
}

// PopSweepAdaptiveRow is one step of the adaptive crossover sweep.
type PopSweepAdaptiveRow struct {
	Factor   float64
	SIA      time.Duration
	SIB      time.Duration
	GapRatio float64
	// Outcome is the sequential decision: noticeable, not-noticeable, or
	// exhausted (budget drained without a lock).
	Outcome string
	// Noticed is the deciding always-valid interval; its Level is the
	// spent per-look level of the confidence sequence.
	Noticed stats.Interval
	// N is the simulated votes; Budget the fixed budget pop-sweep would
	// have burned.
	N           int64
	Budget      int64
	ShardsRun   int
	ShardsTotal int
	Round       int
	Looks       int
}

// PopSweepAdaptiveResult carries the adaptive crossover sweep.
type PopSweepAdaptiveResult struct {
	Base, A, B  string
	Alpha       float64
	Rows        []PopSweepAdaptiveRow
	Crossover   float64
	HasCross    bool
	Rounds      int
	Votes       int64
	VotesBudget int64
}

// Decision is one locked sequential-stopping decision in experiment terms;
// pkg/qoe maps these onto typed DecisionEvents on the NDJSON wire.
type Decision struct {
	Experiment string
	Cell       string
	Index      int
	Outcome    string
	Round      int
	Looks      int
	Votes      int64
	Budget     int64
	Point      float64
	Lo         float64
	Hi         float64
	Level      float64
}

// Decisions exposes the per-cell decisions in grid order for streaming.
func (r PopSweepAdaptiveResult) Decisions() []Decision {
	out := make([]Decision, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = Decision{
			Experiment: popSweepAdaptiveName,
			Cell:       fmt.Sprintf("%sx%g", r.Base, row.Factor),
			Index:      i,
			Outcome:    row.Outcome,
			Round:      row.Round,
			Looks:      row.Looks,
			Votes:      row.N,
			Budget:     row.Budget,
			Point:      row.Noticed.Point,
			Lo:         row.Noticed.Lo,
			Hi:         row.Noticed.Hi,
			Level:      row.Noticed.Level,
		}
	}
	return out
}

type popSweepAdaptiveExp struct{}

func (popSweepAdaptiveExp) Name() string { return popSweepAdaptiveName }

// Conditions: like pop-sweep, the sweep drives the page loader directly on
// derived networks, so it declares no shared recordings.
func (popSweepAdaptiveExp) Conditions() ([]simnet.NetworkConfig, []string) { return nil, nil }

func (popSweepAdaptiveExp) Run(ctx context.Context, tb *core.Testbed, opts Options) (Result, error) {
	return popSweepAdaptiveRun(ctx, tb, opts)
}

// backendRunner bridges the engine's ShardRunner seam onto a
// PopulationBackend (the distributed fabric).
type backendRunner struct {
	backend PopulationBackend
	specs   []adaptive.CellSpec
}

func (r backendRunner) RunShards(ctx context.Context, cell int, rng population.ShardRange) ([]population.ABShardState, error) {
	s := r.specs[cell]
	return r.backend.RunABShardRange(ctx, popSweepAdaptiveName, cell, s.Cells, s.Config, rng)
}

func popSweepAdaptiveRun(ctx context.Context, tb *core.Testbed, opts Options) (PopSweepAdaptiveResult, error) {
	specs, err := PopSweepAdaptiveSpecs(tb, opts.Seed)
	if err != nil {
		return PopSweepAdaptiveResult{}, err
	}
	acfg := PopSweepAdaptiveConfig()
	if o := opts.Adaptive; o != nil {
		if o.Alpha != 0 {
			acfg.Alpha = o.Alpha
		}
		if o.Threshold != 0 {
			acfg.Threshold = o.Threshold
		}
		if o.MinShards != 0 {
			acfg.MinShards = o.MinShards
		}
		if o.RoundShards != 0 {
			acfg.RoundShards = o.RoundShards
		}
		if o.Workers != 0 {
			acfg.Workers = o.Workers
		}
	}
	var runner adaptive.ShardRunner
	if opts.Population != nil {
		runner = backendRunner{backend: opts.Population, specs: specs}
	}
	res, err := adaptive.RunWith(ctx, specs, acfg, runner)
	if err != nil {
		return PopSweepAdaptiveResult{}, err
	}
	out := PopSweepAdaptiveResult{
		Base: simnet.LTE.Name, A: "QUIC", B: "TCP",
		Alpha:       acfg.Alpha,
		Rounds:      res.Rounds,
		Votes:       res.Votes,
		VotesBudget: res.VotesBudget,
	}
	for i, c := range res.Cells {
		cell := specs[i].Cells[0]
		out.Rows = append(out.Rows, PopSweepAdaptiveRow{
			Factor:      popSweepFactors[i],
			SIA:         cell.Left.SI,
			SIB:         cell.Right.SI,
			GapRatio:    float64(cell.Right.SI) / float64(cell.Left.SI),
			Outcome:     c.Outcome.String(),
			Noticed:     c.Noticed,
			N:           c.Votes,
			Budget:      c.VotesBudget,
			ShardsRun:   c.ShardsRun,
			ShardsTotal: c.ShardsTotal,
			Round:       c.Round,
			Looks:       c.Looks,
		})
	}
	// Crossover rule mirrors pop-sweep: the first step whose notice share
	// sits below the threshold — here, decided NotNoticeable (or exhausted
	// with its fixed-budget point estimate below, exactly pop-sweep's
	// reading of that step).
	for i, row := range out.Rows {
		o := res.Cells[i].Outcome
		if o == adaptive.NotNoticeable || (o == adaptive.Exhausted && row.Noticed.Point < acfg.Threshold) {
			out.Crossover = row.Factor
			out.HasCross = true
			break
		}
	}
	return out, nil
}

// Render prints the adaptive crossover sweep.
func (r PopSweepAdaptiveResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Adaptive population sweep (speed dimension over %s): %s vs %s, sequential stopping at alpha=%g over a %d-voter budget per step\n\n",
		r.Base, r.A, r.B, r.Alpha, popSweepPanel)
	fmt.Fprintf(w, "%8s %10s %10s %6s %15s %22s %12s %7s %6s\n",
		"factor", "SI(A)", "SI(B)", "B/A", "outcome", "noticed [seq CI]", "votes", "shards", "round")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%8g %10s %10s %6.2f %15s  %5.1f%% [%5.1f,%5.1f]%% %12d %4d/%-2d %6d\n",
			row.Factor, row.SIA.Round(time.Millisecond), row.SIB.Round(time.Millisecond),
			row.GapRatio, row.Outcome,
			100*row.Noticed.Point, 100*row.Noticed.Lo, 100*row.Noticed.Hi,
			row.N, row.ShardsRun, row.ShardsTotal, row.Round)
	}
	if r.HasCross {
		fmt.Fprintf(w, "\nnotice share falls below 50%% at factor %g: faster networks hide the protocol\n", r.Crossover)
	} else {
		fmt.Fprintf(w, "\nnotice share stays above 50%% across the sweep\n")
	}
	saved := r.VotesBudget - r.Votes
	ratio := float64(r.VotesBudget) / float64(r.Votes)
	fmt.Fprintf(w, "simulated %d of %d budgeted votes in %d rounds (%.1fx fewer, %d saved)\n",
		r.Votes, r.VotesBudget, r.Rounds, ratio, saved)
}

// CSV writes one row per sweep step.
func (r PopSweepAdaptiveResult) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"factor", "si_a_s", "si_b_s", "gap_ratio", "outcome",
		"noticed", "noticed_ci_lo", "noticed_ci_hi", "ci_level",
		"n", "budget", "shards_run", "shards_total", "round", "looks"}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{
			fmtFloat(row.Factor), fmtFloat(row.SIA.Seconds()), fmtFloat(row.SIB.Seconds()),
			fmtFloat(row.GapRatio), row.Outcome,
			fmtFloat(row.Noticed.Point), fmtFloat(row.Noticed.Lo), fmtFloat(row.Noticed.Hi),
			fmtFloat(row.Noticed.Level),
			strconv.FormatInt(row.N, 10), strconv.FormatInt(row.Budget, 10),
			strconv.Itoa(row.ShardsRun), strconv.Itoa(row.ShardsTotal),
			strconv.Itoa(row.Round), strconv.Itoa(row.Looks),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// JSON writes the sweep as indented JSON.
func (r PopSweepAdaptiveResult) JSON(w io.Writer) error { return writeJSON(w, r) }

func init() {
	Register(popSweepAdaptiveExp{})
}
