// Package runner executes a set of registered experiments against one shared
// testbed. It merges the (network × protocol) condition grids declared by
// every selected experiment into a single prewarm plan — so each condition
// is recorded exactly once for the whole batch instead of once per
// experiment — then runs the experiments through core.ForEach, the module's
// one bounded fan-out.
//
// Each experiment gets a deterministic seed derived from the master seed and
// its name (core.DeriveSeed: FNV over the name XOR the master seed, the same
// idiom the testbed uses for per-condition recording seeds), so every result
// is identical whether the experiments run sequentially or in parallel.
//
// RunContext honors context cancellation through the prewarm, the fan-out,
// and (via the Experiment interface) each experiment's own execution,
// and it streams completed results to caller hooks in input order — the
// engine beneath pkg/qoe's streaming Session API, whose sinks own every
// output encoding.
package runner

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/simnet"
)

// Options configures a batch run.
type Options struct {
	Scale core.Scale
	Seed  int64 // master seed; per-experiment seeds are derived from it
	// Parallel bounds the number of experiments running concurrently.
	// Zero resolves through core.DefaultParallelism (the single shared
	// worker default); 1 runs sequentially.
	Parallel int
	// Population, when non-nil, is handed to every experiment so the
	// canonical pop-* engine calls can run out of process (the distributed
	// study fabric). Nil keeps them in process.
	Population experiments.PopulationBackend
	// Adaptive, when non-nil, overrides the canonical sequential-stopping
	// policy of adaptive experiments. Nil keeps the canonical policy.
	Adaptive *experiments.AdaptiveOptions
}

// ExperimentReport is the outcome of one experiment in a batch.
type ExperimentReport struct {
	Name string
	Seed int64 // the derived per-experiment seed
	Err  error
}

// Report is the outcome of a whole batch.
type Report struct {
	Results []ExperimentReport // in the order the experiments were given
	Cache   core.CacheStats    // shared-testbed cache counters after the run
	// Conditions is the size of the merged prewarm plan:
	// sites × merged networks × merged protocols.
	Conditions int
	Prewarm    time.Duration
	Total      time.Duration
}

// Err returns the first per-experiment error, if any.
func (r Report) Err() error {
	for _, res := range r.Results {
		if res.Err != nil {
			return fmt.Errorf("%s: %w", res.Name, res.Err)
		}
	}
	return nil
}

// MergePlan unions the condition grids declared by the experiments:
// networks deduplicated by name and protocols by value, both in first-seen
// order so the plan (and therefore the prewarm job order) is deterministic.
//
// The merged plan is the cartesian product of the two unions. Today every
// grid-declaring experiment spans the same simnet.Networks() set, so the
// product equals the union of the per-experiment grids; if an experiment
// ever declares a disjoint (network × protocol) grid, the product will
// prewarm conditions no experiment uses, and this should switch to merging
// per-experiment pair sets.
func MergePlan(exps []experiments.Experiment) ([]simnet.NetworkConfig, []string) {
	var nets []simnet.NetworkConfig
	var prots []string
	seenNet := map[string]bool{}
	seenProt := map[string]bool{}
	for _, e := range exps {
		ns, ps := e.Conditions()
		for _, n := range ns {
			if !seenNet[n.Name] {
				seenNet[n.Name] = true
				nets = append(nets, n)
			}
		}
		for _, p := range ps {
			if !seenProt[p] {
				seenProt[p] = true
				prots = append(prots, p)
			}
		}
	}
	return nets, prots
}

// Progress is one coarse-grained progress notification of a batch run.
type Progress struct {
	// Stage is "prewarm" while the merged condition plan is being recorded
	// and "experiment" once experiments execute.
	Stage string
	// Experiment names the experiment that just completed (empty for the
	// leading zero-progress notification of a stage).
	Experiment string
	// Completed counts finished units of the stage's Total: conditions for
	// the prewarm stage, experiments for the experiment stage. Prewarm
	// progress is endpoint-granular — one notification at 0 and one at
	// Total — because per-condition reporting would serialize the testbed's
	// recording workers through a callback.
	Completed, Total int
}

// Hooks lets a caller observe a batch run while it executes. Both hooks are
// optional and are invoked from the coordinating goroutine only, so
// implementations need no locking.
type Hooks struct {
	// Progress is called as stages advance. Experiment-stage notifications
	// fire in completion order, which under parallelism is not input order.
	Progress func(Progress)
	// Result is called once per experiment, strictly in input order, as soon
	// as the experiment and all of its predecessors have finished — so a
	// streaming consumer sees results incrementally without losing the
	// deterministic presentation order. res is nil when rep.Err is non-nil.
	Result func(i int, rep ExperimentReport, res experiments.Result)
}

// RunContext prewarms one shared testbed with the merged plan of all
// experiments, then executes them through core.ForEach with opts.Parallel
// workers. The returned report lists results in input order regardless of
// completion order; a per-experiment failure is recorded in its slot rather
// than aborting the batch.
//
// Cancelling ctx stops the run promptly: the prewarm stops between
// conditions, experiments not yet started are marked with ctx.Err() instead
// of running, and in-flight experiments observe the same ctx through their
// Run methods. The shared testbed is discarded with the run, so a cancelled
// batch leaves no corrupted state behind.
func RunContext(ctx context.Context, exps []experiments.Experiment, opts Options, hooks Hooks) Report {
	start := time.Now()
	tb := core.NewTestbed(opts.Scale, opts.Seed)

	rep := Report{Results: make([]ExperimentReport, len(exps))}
	nets, prots := MergePlan(exps)
	rep.Conditions = len(tb.Scale.Sites) * len(nets) * len(prots)
	progress := func(p Progress) {
		if hooks.Progress != nil {
			hooks.Progress(p)
		}
	}
	if rep.Conditions > 0 {
		progress(Progress{Stage: "prewarm", Total: rep.Conditions})
		// Prewarm fails only on cancellation; the pool below then starts no
		// experiment and marks every one with ctx.Err().
		if tb.Prewarm(ctx, nets, prots) == nil {
			progress(Progress{Stage: "prewarm", Completed: rep.Conditions, Total: rep.Conditions})
		}
	}
	rep.Prewarm = time.Since(start)

	// The pool runs on its own goroutine so this one can coordinate: record
	// completions as they arrive, surface progress immediately, and flush
	// Result hooks in input order. Experiments fail into their own slots,
	// so fn never returns an error and one failure cancels nothing.
	type done struct {
		i   int
		rep ExperimentReport
		res experiments.Result
	}
	finished := make(chan done)
	go func() {
		core.ForEach(ctx, len(exps), opts.Parallel, func(ctx context.Context, i, _ int) error {
			r, res := runOne(ctx, tb, exps[i], opts)
			finished <- done{i, r, res}
			return nil
		})
		close(finished)
	}()
	ran := make([]bool, len(exps))
	results := make([]experiments.Result, len(exps))
	next, completed := 0, 0
	record := func(d done) {
		rep.Results[d.i], results[d.i], ran[d.i] = d.rep, d.res, true
		completed++
		progress(Progress{Stage: "experiment", Experiment: d.rep.Name, Completed: completed, Total: len(exps)})
		for ; next < len(exps) && ran[next]; next++ {
			if hooks.Result != nil {
				hooks.Result(next, rep.Results[next], results[next])
			}
			results[next] = nil
		}
	}
	for d := range finished {
		record(d)
	}
	// The pool stops feeding only on cancellation: every experiment it never
	// started still gets its one progress and Result notification.
	for i, e := range exps {
		if !ran[i] {
			record(done{i, ExperimentReport{Name: e.Name(), Seed: core.DeriveSeed(opts.Seed, e.Name()), Err: ctx.Err()}, nil})
		}
	}

	rep.Cache = tb.Stats()
	rep.Total = time.Since(start)
	return rep
}

// runOne executes a single experiment with its derived seed.
func runOne(ctx context.Context, tb *core.Testbed, e experiments.Experiment, opts Options) (ExperimentReport, experiments.Result) {
	out := ExperimentReport{Name: e.Name(), Seed: core.DeriveSeed(opts.Seed, e.Name())}
	res, err := e.Run(ctx, tb, experiments.Options{Scale: opts.Scale, Seed: out.Seed, Population: opts.Population, Adaptive: opts.Adaptive})
	if err != nil {
		out.Err = err
		return out, nil
	}
	return out, res
}
