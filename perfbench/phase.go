package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/stats"
	"repro/pkg/qoe"
)

// workload is one of the benchmark's request mixes.
type workload interface {
	// conns is the number of closed-loop client connections.
	conns() int
	// tracedRequests is the fixed request count of each phase of a traced
	// run, so the counts it reports repeat exactly from run to run.
	tracedRequests() int
	// reference computes, once per run, the outputs requests are checked
	// against.
	reference(ctx context.Context, env *env) error
	// setUp builds a fresh serving stack and brings it to the state the
	// timed phase starts from; a traced stack records qoed's spans.
	setUp(ctx context.Context, env *env, traced bool) (stack, error)
	// latencyP50 is the workload's latency_p50_ms over a phase.
	latencyP50(ph *phase) float64
	// probe times the layers behind the traced phase's requests; see
	// layers.go.
	probe(ctx context.Context, env *env, tp *tracedRun) error
}

// stack is one built set of servers for a workload.
type stack interface {
	// do issues request i of the workload's seeded sequence, checks its
	// output and returns the request's class (its serving tier).
	do(ctx context.Context, i int) (class string, err error)
	// verify checks the servers' tier counters after a phase.
	verify(ctx context.Context, ph *phase) error
	// spans returns the trace spans the servers recorded (traced stacks).
	spans(ctx context.Context) ([]span, error)
	close()
}

// errWrongOutput marks a request whose response arrived but failed the
// output check; such a request is failed AND makes the run incorrect.
var errWrongOutput = errors.New("wrong output")

// sample is one completed request.
type sample struct {
	index int
	class string
	d     time.Duration
}

// phase is one closed-loop measurement: completed samples, outcome counts,
// and process CPU and Go runtime counters read at its two boundaries only.
type phase struct {
	samples   []sample
	attempted int64
	failed    int64
	incorrect int64
	firstErr  error
	wall      time.Duration
	cpu       time.Duration
	mallocs   uint64
	allocated uint64
	gcs       uint32
}

func (ph *phase) completed() int { return len(ph.samples) }

// latencies returns the sample latencies in ms, of one class or ("") all.
func (ph *phase) latencies(class string) []float64 {
	var out []float64
	for _, s := range ph.samples {
		if class == "" || s.class == class {
			out = append(out, ms(s.d))
		}
	}
	return out
}

// classes lists the sample classes in sorted order.
func (ph *phase) classes() []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range ph.samples {
		if !seen[s.class] {
			seen[s.class] = true
			out = append(out, s.class)
		}
	}
	sort.Strings(out)
	return out
}

// classCount counts the completed samples of one class.
func (ph *phase) classCount(class string) int64 {
	var n int64
	for _, s := range ph.samples {
		if s.class == class {
			n++
		}
	}
	return n
}

// perRequest divides a phase total by the completed requests.
func (ph *phase) perRequest(v float64) float64 {
	if ph.completed() == 0 {
		return 0
	}
	return v / float64(ph.completed())
}

// runPhase drives conns closed-loop connections through the stack's request
// sequence from index 0. It stops issuing requests once dur has elapsed, or,
// when count > 0, after request count-1 was issued.
func runPhase(ctx context.Context, st stack, conns int, dur time.Duration, count int) *phase {
	ph := &phase{}
	var next atomic.Int64
	var mu sync.Mutex
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if count == 0 && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if count > 0 && i >= count {
					return
				}
				t0 := time.Now()
				class, err := st.do(ctx, i)
				d := time.Since(t0)
				mu.Lock()
				ph.attempted++
				if err != nil {
					ph.failed++
					if errors.Is(err, errWrongOutput) {
						ph.incorrect++
					}
					if ph.firstErr == nil {
						ph.firstErr = err
					}
				} else {
					ph.samples = append(ph.samples, sample{index: i, class: class, d: d})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	ph.allocated = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcs = ms1.NumGC - ms0.NumGC
	sort.Slice(ph.samples, func(a, b int) bool { return ph.samples[a].index < ph.samples[b].index })
	return ph
}

// report prints the phase's per-class latency quantiles and runtime
// counters as human-readable lines.
func (ph *phase) report(w io.Writer, name string) {
	fmt.Fprintf(w, "%s: %d attempted, %d failed (%d wrong output) in %.1fs; cpu %.1f ms/request\n",
		name, ph.attempted, ph.failed, ph.incorrect, ph.wall.Seconds(), ph.perRequest(ms(ph.cpu)))
	for _, c := range ph.classes() {
		xs := ph.latencies(c)
		fmt.Fprintf(w, "  %-5s n=%-5d p50 %.3f ms  p90 %.3f ms  p99 %.3f ms  max %.3f ms\n",
			c, len(xs), stats.Median(xs), stats.Quantile(xs, 0.9), stats.Quantile(xs, 0.99), stats.Max(xs))
		if len(xs) <= 10 {
			fmt.Fprintf(w, "        each: %.1f ms\n", xs)
		}
	}
	fmt.Fprintf(w, "  runtime: %.0f allocs/request, %.3f MB allocated/request, %.3f GCs/request\n",
		ph.perRequest(float64(ph.mallocs)), ph.perRequest(float64(ph.allocated)/(1<<20)), ph.perRequest(float64(ph.gcs)))
	if ph.firstErr != nil {
		fmt.Fprintf(w, "  first error: %v\n", ph.firstErr)
	}
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// summaryMatches compares the deterministic accounting of two summaries.
func summaryMatches(got, want qoe.SummaryEvent) error {
	if got != want {
		return fmt.Errorf("%w: summary %+v, want %+v", errWrongOutput, got, want)
	}
	return nil
}
