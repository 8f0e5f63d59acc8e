// Command perfbench is the repository's end-to-end and per-layer benchmark.
// Each run drives one closed-loop workload from a single process against
// in-process qoed servers over loopback and prints, as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (client latency, CPU per
// request, peak RSS, set-up time), measured with tracing off. With -trace 1
// the run instead reports per-layer metrics: it repeats a short untraced
// phase, then the same requests against a stack with qoed's tracer on, and
// times calls into each layer's public functions for the workload's tuple.
// It also prints the layer table of the traced requests.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload cold-study --seed 1 --seconds 20 --trace 0
//
// README.md in this directory lists the workloads, the metrics and which
// end-to-end metric each per-layer metric is expected to move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/stats"
)

// setupRepeats is how many times a timed run builds its serving stack; the
// reported setup_s is the median, and the last stack serves the timed phase.
const setupRepeats = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// workloads maps the -workload names to their constructors.
var workloads = map[string]func(seed int64) workload{
	"cold-study":  newColdStudy,
	"shard-fill":  newShardFill,
	"warm-replay": newWarmReplay,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: cold-study, shard-fill or warm-replay")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the request sequence derives from it")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	flag.Parse()
	o.trace = trace == 1
	mk, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload cold-study|shard-fill|warm-replay -seed N -seconds N -trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(context.Background(), mk(o.seed), o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run: the workload's reference outputs, its
// set-up, and either the timed phase or the traced layer run.
func run(ctx context.Context, w workload, o options) (result, error) {
	// Scratch state (spill stores) stays inside the checkout's build dir.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return result{}, err
	}
	tmp, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)
	env := &env{tmp: tmp, http: newHTTPClient()}
	defer env.http.CloseIdleConnections()

	if err := w.reference(ctx, env); err != nil {
		return result{}, fmt.Errorf("reference outputs: %w", err)
	}
	if o.trace {
		return traced(ctx, w, env, o)
	}
	return timed(ctx, w, env, o)
}

// timed is a -trace 0 run: set up setupRepeats times, then drive the timed
// phase for o.seconds and report the end-to-end metrics.
func timed(ctx context.Context, w workload, env *env, o options) (result, error) {
	var setups []float64
	var st stack
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		start := time.Now()
		s, err := w.setUp(ctx, env, false)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		st = s
	}
	defer st.close()

	runtime.GC() // set-up garbage is not the timed phase's work
	ph := runPhase(ctx, st, w.conns(), time.Duration(o.seconds)*time.Second, 0)
	res := result{Correct: ph.incorrect == 0, Attempted: ph.attempted, Failed: ph.failed}
	if err := st.verify(ctx, ph); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: tier check failed: %v\n", o.workload, err)
		res.Correct = false
	}
	ph.report(os.Stderr, o.workload)
	if ph.completed() == 0 {
		return result{}, fmt.Errorf("no request completed: %s", ph.firstErr)
	}
	res.set("latency_p50_ms", "ms", w.latencyP50(ph))
	res.set("cpu_ms_per_request", "ms", ph.perRequest(ms(ph.cpu)))
	res.set("peak_rss_mb", "MB", peakRSSMB())
	res.set("setup_s", "s", stats.Median(setups))
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
