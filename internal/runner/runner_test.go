package runner

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

func tinyScale() core.Scale {
	return core.Scale{Sites: core.QuickScale().Sites[:2], Reps: 2}
}

// outputs runs the batch and maps experiment name to its rendered text,
// failing on any per-experiment error.
func outputs(t *testing.T, exps []experiments.Experiment, opts Options) (Report, map[string]string) {
	t.Helper()
	out := map[string]string{}
	rep := RunContext(context.Background(), exps, opts, Hooks{
		Result: func(_ int, r ExperimentReport, res experiments.Result) {
			if res != nil {
				var buf bytes.Buffer
				res.Render(&buf)
				out[r.Name] = buf.String()
			}
		},
	})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	return rep, out
}

// TestParallelMatchesSequential: the whole batch must render byte-identically
// whether experiments run one at a time or concurrently, and identically
// across repeated runs with the same master seed — the runner extension of
// the determinism promise in internal/experiments/determinism_test.go.
func TestParallelMatchesSequential(t *testing.T) {
	exps := experiments.All()
	opts := Options{Scale: tinyScale(), Seed: 77, Parallel: 1}
	_, seq := outputs(t, exps, opts)

	opts.Parallel = 8
	_, par := outputs(t, exps, opts)
	_, rerun := outputs(t, exps, opts)

	if len(seq) != len(exps) {
		t.Fatalf("results = %d, want %d", len(seq), len(exps))
	}
	for name, want := range seq {
		if want == "" {
			t.Fatalf("%s rendered empty output", name)
		}
		if par[name] != want {
			t.Errorf("%s: parallel output differs from sequential", name)
		}
		if rerun[name] != want {
			t.Errorf("%s: repeated run with same seed differs", name)
		}
	}
}

// TestEachConditionRecordedOnce: at quick scale, a full `all` batch must
// record every (site × network × protocol) condition of the merged plan
// exactly once — the shared-testbed guarantee, asserted via cache counters.
func TestEachConditionRecordedOnce(t *testing.T) {
	exps := experiments.All()
	scale := core.QuickScale()
	nets, prots := MergePlan(exps)
	want := len(scale.Sites) * len(nets) * len(prots)

	rep := RunContext(context.Background(), exps, Options{Scale: scale, Seed: 1}, Hooks{})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Conditions != want {
		t.Fatalf("plan size = %d, want %d", rep.Conditions, want)
	}
	if int(rep.Cache.Records) != want {
		t.Fatalf("recorded %d conditions, want exactly %d (one per condition)", rep.Cache.Records, want)
	}
	if rep.Cache.Hits == 0 {
		t.Fatal("experiments should have hit the shared cache")
	}
}

// TestMergePlan: networks dedup by name and protocols by value, first-seen
// order preserved, condition-free experiments contribute nothing.
func TestMergePlan(t *testing.T) {
	all := experiments.All()
	nets, prots := MergePlan(all)
	// Four Table 2 networks plus the four scenario-library profiles the
	// pop-* experiments declare.
	if len(nets) != 8 {
		t.Fatalf("merged networks = %d, want 8", len(nets))
	}
	if len(prots) != 5 {
		t.Fatalf("merged protocols = %d, want 5", len(prots))
	}
	seen := map[string]bool{}
	for _, n := range nets {
		if seen[n.Name] {
			t.Fatalf("duplicate network %s in merged plan", n.Name)
		}
		seen[n.Name] = true
	}
	for _, p := range prots {
		if seen[p] {
			t.Fatalf("duplicate protocol %s in merged plan", p)
		}
		seen[p] = true
	}
	table1, _ := experiments.Lookup("table1")
	if nets, prots := MergePlan([]experiments.Experiment{table1}); len(nets) != 0 || len(prots) != 0 {
		t.Fatal("table1 should declare no conditions")
	}
}

// TestDerivedSeedsDiffer: experiments in one batch must not share a seed,
// and an experiment's output must not depend on which other experiments run
// alongside it.
func TestDerivedSeedsDiffer(t *testing.T) {
	exps := experiments.All()
	rep, batch := outputs(t, exps, Options{Scale: tinyScale(), Seed: 5})
	seeds := map[int64]string{}
	for _, res := range rep.Results {
		if prev, dup := seeds[res.Seed]; dup {
			t.Fatalf("seed collision between %s and %s", prev, res.Name)
		}
		seeds[res.Seed] = res.Name
		if res.Seed != core.DeriveSeed(5, res.Name) {
			t.Fatalf("%s seed = %d, want DeriveSeed(5, name)", res.Name, res.Seed)
		}
	}
	// fig5 alone matches fig5 within the batch.
	fig5, _ := experiments.Lookup("fig5")
	_, solo := outputs(t, []experiments.Experiment{fig5}, Options{Scale: tinyScale(), Seed: 5})
	if solo["fig5"] == "" || solo["fig5"] != batch["fig5"] {
		t.Fatal("fig5 output depends on the batch composition")
	}
}

// TestRunContextHooksOrdered: Result hooks must arrive strictly in input
// order with the experiment's Result attached, even under parallelism, and
// progress notifications must count every experiment exactly once.
func TestRunContextHooksOrdered(t *testing.T) {
	exps := experiments.All()
	var order []string
	var progressed int
	rep := RunContext(context.Background(), exps, Options{Scale: tinyScale(), Seed: 2, Parallel: 8},
		Hooks{
			Progress: func(p Progress) {
				if p.Stage == "experiment" && p.Experiment != "" {
					progressed++
				}
			},
			Result: func(i int, r ExperimentReport, res experiments.Result) {
				if len(order) != i {
					t.Fatalf("result hook for %s arrived at position %d, want %d", r.Name, len(order), i)
				}
				if r.Err == nil && res == nil {
					t.Fatalf("%s: successful result without a Result value", r.Name)
				}
				order = append(order, r.Name)
			},
		})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if len(order) != len(exps) || progressed != len(exps) {
		t.Fatalf("hooks saw %d results / %d progress, want %d", len(order), progressed, len(exps))
	}
	for i, e := range exps {
		if order[i] != e.Name() {
			t.Fatalf("hook order %v does not match input order", order)
		}
	}
}

// TestRunContextCanceled: a context cancelled mid-batch stops scheduling,
// marks unstarted experiments with ctx.Err(), and the registry/testbed
// machinery stays usable for a fresh run afterwards.
func TestRunContextCanceled(t *testing.T) {
	exps := experiments.All()
	ctx, cancel := context.WithCancel(context.Background())
	canceled := 0
	rep := RunContext(ctx, exps, Options{Scale: tinyScale(), Seed: 4, Parallel: 1}, Hooks{
		Result: func(i int, r ExperimentReport, res experiments.Result) {
			cancel() // cancel as soon as the first experiment lands
			if errors.Is(r.Err, context.Canceled) {
				canceled++
			}
		},
	})
	if err := rep.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("report error = %v, want context.Canceled", err)
	}
	if canceled == 0 {
		t.Fatal("no experiment was marked cancelled — cancellation did not interrupt the batch")
	}
	// Shared state is not corrupted: an immediate fresh run succeeds fully.
	fresh := RunContext(context.Background(), exps, Options{Scale: tinyScale(), Seed: 4, Parallel: 1}, Hooks{})
	if err := fresh.Err(); err != nil {
		t.Fatalf("batch after cancellation failed: %v", err)
	}
}

// TestRunContextCanceledDuringPrewarm: a batch that dies in the prewarm
// still delivers one Result hook per experiment (all marked with ctx.Err()),
// honoring the Hooks.Result contract on the early-return path.
func TestRunContextCanceledDuringPrewarm(t *testing.T) {
	exps := experiments.All()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // prewarm fails immediately
	var results int
	rep := RunContext(ctx, exps, Options{Scale: tinyScale(), Seed: 8}, Hooks{
		Result: func(i int, r ExperimentReport, res experiments.Result) {
			if i != results {
				t.Fatalf("result %d out of order", i)
			}
			if !errors.Is(r.Err, context.Canceled) || res != nil {
				t.Fatalf("%s: err = %v, res = %v; want ctx error and nil result", r.Name, r.Err, res)
			}
			results++
		},
	})
	if results != len(exps) {
		t.Fatalf("result hooks = %d, want %d", results, len(exps))
	}
	if err := rep.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("report error = %v", err)
	}
}
