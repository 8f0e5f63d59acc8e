package qoe

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runner"
)

// Scale selects how much recording effort a session invests per condition.
type Scale string

// The three testbed scales.
const (
	// ScaleQuick covers the five lab sites with five repetitions — the
	// smallest setting that exercises every experiment end to end.
	ScaleQuick Scale = "quick"
	// ScaleStandard covers the full 36-site corpus with seven repetitions.
	ScaleStandard Scale = "standard"
	// ScalePaper matches the paper's recording effort: 36 sites, 31 reps.
	ScalePaper Scale = "paper"
)

// ScaleNames lists the scale names ParseScale accepts, smallest first.
func ScaleNames() []string {
	return []string{string(ScaleQuick), string(ScaleStandard), string(ScalePaper)}
}

// ParseScale resolves a scale name.
func ParseScale(name string) (Scale, error) {
	switch Scale(name) {
	case ScaleQuick, ScaleStandard, ScalePaper:
		return Scale(name), nil
	}
	return "", fmt.Errorf("qoe: unknown scale %q (have: quick, standard, paper)", name)
}

func (s Scale) testbedScale() (core.Scale, error) {
	switch s {
	case ScaleQuick, "":
		return core.QuickScale(), nil
	case ScaleStandard:
		return core.StandardScale(), nil
	case ScalePaper:
		return core.PaperScale(), nil
	}
	return core.Scale{}, fmt.Errorf("qoe: unknown scale %q (have: quick, standard, paper)", s)
}

// Session owns one configured run of the experiment suite: the selected
// experiments, the testbed scale, the master seed, and the parallelism
// bound. A Session is immutable once built and may be Run any number of
// times; each Run constructs a fresh shared testbed, so runs never leak
// state into each other.
type Session struct {
	scenarios  []string
	exps       []experiments.Experiment
	scale      core.Scale
	scaleName  Scale
	seed       int64
	parallel   int
	population experiments.PopulationBackend
	adaptive   *experiments.AdaptiveOptions
}

// Option configures a Session under construction.
type Option func(*Session) error

// WithSeed sets the master seed (default 1). Every experiment, condition
// recording, and population shard derives its own seed from it, so one seed
// pins an entire run.
func WithSeed(seed int64) Option {
	return func(s *Session) error {
		s.seed = seed
		return nil
	}
}

// WithScale sets the testbed scale (default ScaleQuick).
func WithScale(scale Scale) Option {
	return func(s *Session) error {
		if _, err := scale.testbedScale(); err != nil {
			return err
		}
		s.scaleName = scale
		return nil
	}
}

// WithParallelism bounds how many experiments run concurrently. Zero (the
// default) resolves to core.DefaultParallelism — GOMAXPROCS — at session
// construction; this option is the one place the default is applied, and
// the resolved value is passed down explicitly. One runs sequentially,
// which also makes the progress-event order deterministic.
func WithParallelism(n int) Option {
	return func(s *Session) error {
		if n < 0 {
			return fmt.Errorf("qoe: negative parallelism %d", n)
		}
		s.parallel = n
		return nil
	}
}

// PopulationBackend is an alternative engine for the canonical population
// runs (pop-ab, pop-rating, and pop-sweep-adaptive's round grants); the
// distributed one is a qoed.Fabric's ForTuple view of one run tuple.
type PopulationBackend = experiments.PopulationBackend

// WithPopulationBackend routes the canonical population engine calls
// through backend — typically a distributed study fabric coordinator's view
// of the session's (scale, seed) tuple, which shards them across qoed
// workers — instead of running them in process.
// Everything around the engine call is unchanged, so the session's event
// stream stays byte-identical to an in-process run; nil (the default) keeps
// the engine local.
func WithPopulationBackend(backend PopulationBackend) Option {
	return func(s *Session) error {
		s.population = backend
		return nil
	}
}

// AdaptiveConfig tunes the sequential-stopping policy of adaptive
// experiments (pop-sweep-adaptive): the always-valid error budget Alpha,
// the noticeability Threshold, and the allocator's MinShards bootstrap and
// RoundShards per-round budget. Zero fields keep the canonical defaults;
// Workers bounds the engine's shard parallelism and never changes result
// bytes.
type AdaptiveConfig = experiments.AdaptiveOptions

// WithAdaptive overrides the canonical sequential-stopping policy of
// adaptive experiments. The policy shapes the result bytes (which cells
// stop when), so sessions that must stay byte-comparable to golden, cached,
// or fabric runs leave it unset — the canonical policy is the default.
func WithAdaptive(cfg AdaptiveConfig) Option {
	return func(s *Session) error {
		if cfg.Alpha < 0 || cfg.Alpha >= 1 {
			return fmt.Errorf("qoe: adaptive alpha %g outside [0, 1)", cfg.Alpha)
		}
		if cfg.Threshold < 0 || cfg.Threshold >= 1 {
			return fmt.Errorf("qoe: adaptive threshold %g outside [0, 1)", cfg.Threshold)
		}
		if cfg.MinShards < 0 || cfg.RoundShards < 0 || cfg.Workers < 0 {
			return fmt.Errorf("qoe: negative adaptive shard/worker counts")
		}
		c := cfg
		s.adaptive = &c
		return nil
	}
}

// WithScenarios selects the experiments the session runs, by registry name
// and in the given order; the pseudo-name "all" expands to the full
// canonical suite (and is the default). Unknown names fail NewSession with
// a did-you-mean suggestion.
func WithScenarios(names ...string) Option {
	return func(s *Session) error {
		s.scenarios = append([]string(nil), names...)
		return nil
	}
}

// NewSession builds a Session from the options, resolving experiment names
// against the registry and defaults (scale quick, seed 1, parallelism
// core.DefaultParallelism) eagerly so misconfiguration fails here, not
// mid-run.
func NewSession(opts ...Option) (*Session, error) {
	s := &Session{scaleName: ScaleQuick, seed: 1}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	var err error
	if s.scale, err = s.scaleName.testbedScale(); err != nil {
		return nil, err
	}
	if s.parallel == 0 {
		s.parallel = core.DefaultParallelism()
	}
	if len(s.scenarios) == 0 {
		s.scenarios = []string{"all"}
	}
	if s.exps, err = experiments.Select(s.scenarios...); err != nil {
		return nil, fmt.Errorf("qoe: %w", err)
	}
	return s, nil
}

// Experiments lists the resolved experiment names the session will run, in
// run order.
func (s *Session) Experiments() []string {
	out := make([]string, len(s.exps))
	for i, e := range s.exps {
		out[i] = e.Name()
	}
	return out
}

// Parallelism returns the resolved concurrency bound.
func (s *Session) Parallelism() int { return s.parallel }

// Summary is the outcome of one Session.Run: the deterministic wire-level
// accounting (SummaryEvent) plus the wall-clock timings, which stay off the
// event stream so streamed output is reproducible.
type Summary struct {
	SummaryEvent
	Prewarm time.Duration
	Total   time.Duration
}

// String renders the classic one-line batch accounting (the line qoebench
// prints to stderr).
func (s Summary) String() string {
	return fmt.Sprintf("[%d experiments in %v; prewarm %v over %d conditions; cache: %d recorded, %d hits]",
		s.Experiments, s.Total.Round(time.Millisecond), s.Prewarm.Round(time.Millisecond),
		s.Conditions, s.CacheRecords, s.CacheHits)
}

// Run executes the session's experiments against one fresh shared testbed
// and streams the outcome to sink (nil runs silently). Events arrive on a
// single goroutine: progress as stages advance, then — strictly in
// selection order — each experiment's ResultEvent (for ResultSink
// implementors), its DecisionEvents in grid order (adaptive experiments,
// DecisionSink implementors), and its RowEvents, and finally one
// SummaryEvent.
//
// Run returns the first of: a sink error (which also cancels the rest of
// the run), ctx's error if it was cancelled, or the first per-experiment
// error. A cancelled run stops the prewarm between conditions, marks
// unstarted experiments with ctx.Err(), and winds population shard loops
// down promptly; since the testbed is private to the run, no shared state
// survives in a corrupted form.
func (s *Session) Run(ctx context.Context, sink Sink) (Summary, error) {
	if sink == nil {
		sink = discardSink{}
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var sinkErr error
	// emit delivers one event, latching the first sink error (which also
	// cancels the rest of the run) and reporting delivery success.
	emit := func(f func() error) bool {
		if sinkErr != nil {
			return false
		}
		if err := f(); err != nil {
			sinkErr = err
			cancel()
			return false
		}
		return true
	}
	resultSink, _ := sink.(ResultSink)
	decisionSink, _ := sink.(DecisionSink)
	_, skipRows := sink.(rowless)
	rows := 0

	rep := runner.RunContext(runCtx, s.exps, runner.Options{
		Scale:      s.scale,
		Seed:       s.seed,
		Parallel:   s.parallel,
		Format:     runner.None,
		Population: s.population,
		Adaptive:   s.adaptive,
	}, runner.Hooks{
		Progress: func(p runner.Progress) {
			emit(func() error {
				return sink.Progress(ProgressEvent{Stage: Stage(p.Stage), Experiment: p.Experiment, Completed: p.Completed, Total: p.Total})
			})
		},
		Result: func(i int, r runner.ExperimentReport, res experiments.Result) {
			if resultSink != nil {
				emit(func() error {
					return resultSink.Result(ResultEvent{Experiment: r.Name, Seed: r.Seed, Duration: r.Duration, Err: r.Err, Doc: res})
				})
			}
			if r.Err != nil || res == nil || sinkErr != nil {
				return
			}
			if decisionSink != nil {
				if dd, ok := res.(interface {
					Decisions() []experiments.Decision
				}); ok {
					for _, d := range dd.Decisions() {
						d := d
						if !emit(func() error {
							return decisionSink.Decision(DecisionEvent{
								Experiment: d.Experiment, Cell: d.Cell, Index: d.Index,
								Outcome: d.Outcome, Round: d.Round, Looks: d.Looks,
								Votes: d.Votes, Budget: d.Budget,
								Point: d.Point, Lo: d.Lo, Hi: d.Hi, Level: d.Level,
							})
						}) {
							return
						}
					}
				}
			}
			if skipRows {
				return
			}
			evs, err := rowEvents(r.Name, res)
			if err != nil {
				emit(func() error { return err })
				return
			}
			for _, ev := range evs {
				ev := ev
				if !emit(func() error { return sink.Row(ev) }) {
					return
				}
				rows++
			}
		},
	})

	summary := Summary{
		SummaryEvent: SummaryEvent{
			Experiments:  len(rep.Results),
			Rows:         rows,
			Conditions:   rep.Conditions,
			CacheRecords: rep.Cache.Records,
			CacheHits:    rep.Cache.Hits,
		},
		Prewarm: rep.Prewarm,
		Total:   rep.Total,
	}
	emit(func() error { return sink.Summary(summary.SummaryEvent) })

	switch {
	case sinkErr != nil:
		return summary, sinkErr
	case ctx.Err() != nil:
		return summary, ctx.Err()
	default:
		return summary, rep.Err()
	}
}
