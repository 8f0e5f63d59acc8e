// Command qoeload is the load-proof harness for the serving stack: it
// replays hundreds of concurrent qoe.Client connections against an
// in-process qoed daemon with a mixed request blend — cold tuples that must
// simulate, warm tuples that replay from the result cache, and duplicate
// bursts that collapse onto one run via singleflight — and reports latency
// percentiles, row throughput, and heap allocations for the whole
// client+server round trip. It exits nonzero when a configured SLO is
// violated, which is what lets CI gate the zero-alloc population loop and
// append-based stream encoding with an end-to-end measurement instead of
// microbenchmarks alone.
//
// Usage:
//
//	qoeload [-conns N] [-requests N] [-blend COLD:CACHED:DEDUP[:DISK]]
//	        [-experiments LIST] [-scale quick|paper] [-warm N]
//	        [-dedup-group N] [-seed N] [-workers N] [-queue N] [-store DIR]
//	        [-max-p50 DUR] [-max-p99 DUR] [-max-disk-p99 DUR]
//	        [-min-rows-per-sec F] [-max-error-rate F] [-timeout DUR] [-json]
//
// The blend is scheduled deterministically from -seed: request classes are
// interleaved by an exact-proportion shuffle, cold requests draw
// never-repeated seeds, cached requests draw from a pre-warmed pool, and
// dedup requests arrive in groups sharing one fresh tuple so concurrent
// arrivals exercise the server's singleflight path. Because every tuple is a
// pure function of its spec, the harness also cross-checks correctness under
// load: every response's summary must match the first response seen for the
// same tuple, so a race that corrupted a stream would fail the run even if
// it met the latency SLOs.
//
// A nonzero DISK weight turns on restart-the-store mode: a first daemon
// life computes the disk class's tuples into a spill store (-store, or a
// private temp dir) and shuts down, and the measured daemon boots on that
// directory with a cold RAM tier — so every disk request replays a
// checksummed spill entry from the durable tier under live mixed load, the
// path a restarted (or memory-pressured) node serves while it re-warms.
// -max-disk-p99 gates that class's p99, and the cross-restart summary check
// extends the determinism guard over the store's replay path.
//
// Exit status: 0 when all SLOs hold, 1 on an SLO violation or any failed
// request beyond -max-error-rate, 2 on setup/usage errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/qoe"
	"repro/pkg/qoe/qoed"
)

// reqClass labels the three admission paths a request is scheduled to hit.
// The server decides the actual outcome (a dedup-group straggler lands on
// the cache once its run finishes); the class records intent, the server's
// /metrics counters record what happened.
type reqClass int

const (
	classCold reqClass = iota
	classCached
	classDedup
	classDisk
	numClasses
)

func (c reqClass) String() string {
	switch c {
	case classCold:
		return "cold"
	case classCached:
		return "cached"
	case classDedup:
		return "dedup"
	case classDisk:
		return "disk"
	}
	return "?"
}

// request is one scheduled load unit: a class and the seed that, with the
// shared experiment selection and scale, names its canonical tuple.
type request struct {
	class reqClass
	seed  int64
}

// sample is one completed request's measurement.
type sample struct {
	class   reqClass
	latency time.Duration
	rows    int
	retries int
	err     error
}

// countSink counts rows without retaining them: the cheapest possible
// consumer, so the measurement is the serving+decode path, not the harness.
type countSink struct{ rows int }

func (s *countSink) Row(qoe.RowEvent) error           { s.rows++; return nil }
func (s *countSink) Progress(qoe.ProgressEvent) error { return nil }
func (s *countSink) Summary(qoe.SummaryEvent) error   { return nil }

// tupleCheck is the determinism cross-check: the first summary observed for
// a seed becomes its expectation, and every later response for the same seed
// must match it exactly.
type tupleCheck struct {
	mu   sync.Mutex
	seen map[int64]qoe.SummaryEvent
}

func (tc *tupleCheck) verify(seed int64, got qoe.SummaryEvent) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	want, ok := tc.seen[seed]
	if !ok {
		tc.seen[seed] = got
		return nil
	}
	if want != got {
		return fmt.Errorf("summary mismatch for seed %d: got %+v, want %+v", seed, got, want)
	}
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	conns := flag.Int("conns", 200, "concurrent client connections")
	requests := flag.Int("requests", 600, "total measured requests across all connections")
	blend := flag.String("blend", "1:6:3", "cold:cached:dedup request mix (integer weights)")
	experiments := flag.String("experiments", "table1", "comma-separated experiment selection for every tuple")
	scale := flag.String("scale", "quick", "testbed scale for every tuple")
	warm := flag.Int("warm", 4, "distinct tuples pre-run into the result cache for the cached class")
	dedupGroup := flag.Int("dedup-group", 8, "requests sharing one fresh tuple per dedup burst")
	seed := flag.Int64("seed", 1, "schedule-shuffle seed (tuple seeds derive from it deterministically)")
	workers := flag.Int("workers", 0, "server simulation workers (0 = one per core)")
	queue := flag.Int("queue", 64, "server admission queue depth")
	storeDir := flag.String("store", "", "spill store directory for the disk class (default: a private temp dir)")
	maxP50 := flag.Duration("max-p50", 0, "SLO: overall p50 latency ceiling (0 disables)")
	maxP99 := flag.Duration("max-p99", 0, "SLO: overall p99 latency ceiling (0 disables)")
	maxDiskP99 := flag.Duration("max-disk-p99", 0, "SLO: disk-class (warm-restart) p99 latency ceiling (0 disables)")
	minRows := flag.Float64("min-rows-per-sec", 0, "SLO: decoded-row throughput floor (0 disables)")
	maxErrRate := flag.Float64("max-error-rate", 0, "SLO: tolerated fraction of failed requests")
	timeout := flag.Duration("timeout", 5*time.Minute, "hard deadline for the whole harness")
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of text")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: qoeload [-conns N] [-requests N] [-blend C:H:D[:K]] [-max-p99 DUR] ...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		return 2
	}
	weights, err := parseBlend(*blend)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoeload: %v\n", err)
		return 2
	}
	if *conns < 1 || *requests < 1 || *warm < 1 || *dedupGroup < 1 {
		fmt.Fprintln(os.Stderr, "qoeload: -conns, -requests, -warm, and -dedup-group must be >= 1")
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	sel := strings.Split(*experiments, ",")
	newReq := func(tupleSeed int64) qoe.RunRequest {
		return qoe.RunRequest{Experiments: sel, Scale: qoe.Scale(*scale), Seed: tupleSeed}
	}
	check := &tupleCheck{seen: make(map[int64]qoe.SummaryEvent)}

	// The schedule is fixed before any daemon boots: the disk class's tuple
	// set must be known up front so the pre-restart phase can compute it.
	schedule := buildSchedule(*requests, weights, *warm, *dedupGroup, rand.New(rand.NewSource(*seed)))
	diskSeeds := map[int64]bool{}
	for _, r := range schedule {
		if r.class == classDisk {
			diskSeeds[r.seed] = true
		}
	}

	cfg := qoed.Config{
		Workers:    *workers,
		QueueDepth: *queue,
	}
	if len(diskSeeds) > 0 {
		// Restart-the-store-between-phases mode: a first daemon life computes
		// the disk class's tuples into a spill store and shuts down; the
		// measured daemon boots on the same directory with a cold RAM tier,
		// so each disk request pays the durable tier's read + verify +
		// promote — the restart-recovery path under live mixed load.
		cfg.StoreDir = *storeDir
		if cfg.StoreDir == "" {
			dir, err := os.MkdirTemp("", "qoeload-store-*")
			if err != nil {
				fmt.Fprintf(os.Stderr, "qoeload: store dir: %v\n", err)
				return 2
			}
			defer os.RemoveAll(dir)
			cfg.StoreDir = dir
		}
		if code := prewarmDiskStore(ctx, cfg, diskSeeds, newReq, check); code != 0 {
			return code
		}
	}

	// In-process daemon on a loopback listener: the harness measures the
	// full HTTP round trip, but its allocation accounting spans both ends
	// because client and server share this process's heap.
	srv, err := qoed.Open(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoeload: %v\n", err)
		return 2
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoeload: listen: %v\n", err)
		return 2
	}
	httpSrv := &http.Server{Handler: srv}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()
	baseURL := "http://" + ln.Addr().String()

	// One shared transport sized for the connection count, so the hundreds
	// of logical clients don't serialize on the default two idle conns.
	transport := &http.Transport{
		MaxIdleConns:        2 * *conns,
		MaxIdleConnsPerHost: 2 * *conns,
	}
	defer transport.CloseIdleConnections()
	httpc := &http.Client{Transport: transport}

	// Warm phase (untimed): prime the result cache with the cached class's
	// seed pool, and fail fast if the tuple itself is invalid.
	warmClient := qoe.NewClient(baseURL, httpc)
	for i := 0; i < *warm; i++ {
		s := cachedSeedBase + int64(i)
		summary, err := warmClient.Run(ctx, newReq(s), nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qoeload: warm run (seed %d): %v\n", s, err)
			return 2
		}
		if err := check.verify(s, summary); err != nil {
			fmt.Fprintf(os.Stderr, "qoeload: warm run: %v\n", err)
			return 2
		}
	}

	// Measured phase.
	var sheds atomic.Int64
	samples := make([]sample, len(schedule))
	work := make(chan int)
	var wg sync.WaitGroup
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for w := 0; w < *conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := qoe.NewClient(baseURL, httpc)
			var sink countSink
			for idx := range work {
				req := schedule[idx]
				samples[idx] = oneRequest(ctx, client, newReq(req.seed), req, &sink, check, &sheds)
			}
		}()
	}
	for idx := range schedule {
		work <- idx
	}
	close(work)
	wg.Wait()
	wall := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	rep := buildReport(samples, wall, before, after, sheds.Load())
	rep.Conns = *conns
	rep.Blend = *blend
	rep.Experiments = *experiments
	rep.Scale = *scale
	// Best-effort: a scrape failure drops the section rather than the run.
	if m, err := qoe.NewClient(baseURL, httpc).Metrics(ctx); err == nil {
		rep.ServerMetrics = &m
	}

	rep.evalSLOs(*maxP50, *maxP99, *maxDiskP99, *minRows, *maxErrRate)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	} else {
		rep.render(os.Stdout)
	}
	if !rep.Pass {
		return 1
	}
	return 0
}

// Seed spaces for the three classes. Keeping them disjoint guarantees a
// "cold" tuple is genuinely cold: it can never collide with the warmed pool
// or a dedup burst.
const (
	cachedSeedBase = 1
	coldSeedBase   = 1_000_000
	dedupSeedBase  = 2_000_000
	diskSeedBase   = 3_000_000
)

// prewarmDiskStore is the first daemon life of restart-the-store mode: it
// computes every disk-class tuple through a daemon writing through to
// cfg.StoreDir, waits for the spill writes to land, and shuts the daemon
// down — leaving a warm durable tier and a cold everything-else for the
// measured life to recover from. Summaries are recorded into check, so the
// measured phase also verifies determinism ACROSS the restart.
func prewarmDiskStore(ctx context.Context, cfg qoed.Config, diskSeeds map[int64]bool, newReq func(int64) qoe.RunRequest, check *tupleCheck) int {
	srv, err := qoed.Open(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoeload: pre-restart store: %v\n", err)
		return 2
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoeload: listen: %v\n", err)
		return 2
	}
	httpSrv := &http.Server{Handler: srv}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()
	client := qoe.NewClient("http://"+ln.Addr().String(), nil)
	for s := range diskSeeds {
		summary, err := client.Run(ctx, newReq(s), nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qoeload: disk pre-run (seed %d): %v\n", s, err)
			return 2
		}
		if err := check.verify(s, summary); err != nil {
			fmt.Fprintf(os.Stderr, "qoeload: disk pre-run: %v\n", err)
			return 2
		}
	}
	// A summary is released only after its run is durable, so every tuple
	// is in the store now.
	m, err := client.Metrics(ctx)
	if err == nil && m.StoreEntries < int64(len(diskSeeds)) {
		err = fmt.Errorf("%d of %d tuples in the store", m.StoreEntries, len(diskSeeds))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoeload: disk pre-runs: %v\n", err)
		return 2
	}
	return 0
}

// parseBlend parses "cold:cached:dedup[:disk]" integer weights. The legacy
// three-part form is accepted with a disk weight of zero, so existing
// invocations keep their exact schedule.
func parseBlend(s string) ([numClasses]int, error) {
	var w [numClasses]int
	parts := strings.Split(s, ":")
	if len(parts) != int(numClasses) && len(parts) != int(numClasses)-1 {
		return w, fmt.Errorf("bad -blend %q: want COLD:CACHED:DEDUP[:DISK]", s)
	}
	sum := 0
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return w, fmt.Errorf("bad -blend weight %q", p)
		}
		w[i] = n
		sum += n
	}
	if sum == 0 {
		return w, fmt.Errorf("bad -blend %q: all weights zero", s)
	}
	return w, nil
}

// buildSchedule lays out the measured requests: exact-proportion class
// counts (largest-remainder rounding), deterministic seeds per class, one
// shuffle so the classes interleave the way mixed production traffic would.
func buildSchedule(n int, weights [numClasses]int, warm, dedupGroup int, rng *rand.Rand) []request {
	sum := 0
	for _, w := range weights {
		sum += w
	}
	counts := [numClasses]int{}
	assigned := 0
	for c := range counts {
		counts[c] = n * weights[c] / sum
		assigned += counts[c]
	}
	for c := 0; assigned < n; c = (c + 1) % int(numClasses) {
		if weights[c] > 0 {
			counts[c]++
			assigned++
		}
	}
	schedule := make([]request, 0, n)
	var coldNext, dedupNext int64
	for i := 0; i < counts[classCold]; i++ {
		schedule = append(schedule, request{classCold, coldSeedBase + coldNext})
		coldNext++
	}
	for i := 0; i < counts[classCached]; i++ {
		schedule = append(schedule, request{classCached, cachedSeedBase + int64(rng.Intn(warm))})
	}
	for i := 0; i < counts[classDedup]; i++ {
		schedule = append(schedule, request{classDedup, dedupSeedBase + dedupNext/int64(dedupGroup)})
		dedupNext++
	}
	// Disk requests get distinct sequential seeds: each tuple is computed in
	// the pre-restart phase and then evicted from RAM by the restart, so every
	// measured disk request pays exactly one durable-tier read + promote.
	for i := 0; i < counts[classDisk]; i++ {
		schedule = append(schedule, request{classDisk, diskSeedBase + int64(i)})
	}
	rng.Shuffle(len(schedule), func(i, j int) { schedule[i], schedule[j] = schedule[j], schedule[i] })
	return schedule
}

// oneRequest executes one scheduled request, retrying 429/503 shed
// responses with a short capped backoff (each shed is counted; only final
// failures count against the error-rate SLO). Latency spans first attempt
// to fully decoded stream — retries are the client-visible cost of load
// shedding, so they stay inside the measurement.
func oneRequest(ctx context.Context, client *qoe.Client, rr qoe.RunRequest, req request, sink *countSink, check *tupleCheck, sheds *atomic.Int64) sample {
	const maxAttempts = 50
	t0 := time.Now()
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		sink.rows = 0
		summary, err := client.Run(ctx, rr, sink)
		if err == nil {
			err = check.verify(rr.Seed, summary)
			return sample{class: req.class, latency: time.Since(t0), rows: sink.rows, retries: attempt, err: err}
		}
		var retryable *qoe.RetryableError
		if !errors.As(err, &retryable) || ctx.Err() != nil {
			return sample{class: req.class, latency: time.Since(t0), retries: attempt, err: err}
		}
		sheds.Add(1)
		backoff := retryable.RetryAfter
		if backoff > 100*time.Millisecond {
			backoff = 100 * time.Millisecond
		}
		lastErr = err
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return sample{class: req.class, latency: time.Since(t0), retries: attempt, err: ctx.Err()}
		}
	}
	return sample{class: req.class, latency: time.Since(t0), retries: maxAttempts, err: fmt.Errorf("gave up after %d shed retries: %w", maxAttempts, lastErr)}
}

// classStats summarizes one request class.
type classStats struct {
	Requests int           `json:"requests"`
	Errors   int           `json:"errors"`
	P50      time.Duration `json:"p50_ns"`
	P99      time.Duration `json:"p99_ns"`
	Max      time.Duration `json:"max_ns"`
}

// report is the harness result, both the JSON document (-json) and the
// source for the text rendering. ServerMetrics is the daemon's /metrics
// after the run: how the blend actually landed (accepted vs deduped vs
// cache-hit vs rejected), and under latency the daemon's own per-class
// serving-latency summary — the server-side complement of the
// harness-measured PerClass numbers.
type report struct {
	Conns         int                   `json:"conns"`
	Blend         string                `json:"blend"`
	Experiments   string                `json:"experiments"`
	Scale         string                `json:"scale"`
	Requests      int                   `json:"requests"`
	Errors        int                   `json:"errors"`
	Sheds         int64                 `json:"sheds_retried"`
	WallSeconds   float64               `json:"wall_seconds"`
	ReqPerSec     float64               `json:"requests_per_sec"`
	RowsPerSec    float64               `json:"rows_per_sec"`
	Rows          int64                 `json:"rows"`
	AllocsPerReq  float64               `json:"allocs_per_request"`
	BytesPerReq   float64               `json:"alloc_bytes_per_request"`
	Overall       classStats            `json:"overall"`
	PerClass      map[string]classStats `json:"per_class"`
	ServerMetrics *qoe.DaemonMetrics    `json:"server_metrics,omitempty"`
	SLOs          []sloResult           `json:"slos"`
	Pass          bool                  `json:"pass"`
}

// sloResult is one gate's verdict.
type sloResult struct {
	Name string `json:"name"`
	Want string `json:"want"`
	Got  string `json:"got"`
	OK   bool   `json:"ok"`
}

func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(len(sorted))*q+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func statsFor(samples []sample, class reqClass, all bool) classStats {
	var lat []time.Duration
	st := classStats{}
	for _, s := range samples {
		if !all && s.class != class {
			continue
		}
		st.Requests++
		if s.err != nil {
			st.Errors++
			continue
		}
		lat = append(lat, s.latency)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	st.P50 = percentile(lat, 0.50)
	st.P99 = percentile(lat, 0.99)
	if n := len(lat); n > 0 {
		st.Max = lat[n-1]
	}
	return st
}

func buildReport(samples []sample, wall time.Duration, before, after runtime.MemStats, sheds int64) *report {
	rep := &report{
		Requests: len(samples),
		Sheds:    sheds,
		PerClass: make(map[string]classStats, numClasses),
	}
	for _, s := range samples {
		if s.err != nil {
			rep.Errors++
		} else {
			rep.Rows += int64(s.rows)
		}
	}
	rep.WallSeconds = wall.Seconds()
	if rep.WallSeconds > 0 {
		rep.ReqPerSec = float64(rep.Requests) / rep.WallSeconds
		rep.RowsPerSec = float64(rep.Rows) / rep.WallSeconds
	}
	if rep.Requests > 0 {
		rep.AllocsPerReq = float64(after.Mallocs-before.Mallocs) / float64(rep.Requests)
		rep.BytesPerReq = float64(after.TotalAlloc-before.TotalAlloc) / float64(rep.Requests)
	}
	rep.Overall = statsFor(samples, 0, true)
	for c := classCold; c < numClasses; c++ {
		rep.PerClass[c.String()] = statsFor(samples, c, false)
	}
	return rep
}

// evalSLOs appends one verdict per configured gate plus the always-on
// error-rate gate, and sets Pass to their conjunction.
func (r *report) evalSLOs(maxP50, maxP99, maxDiskP99 time.Duration, minRows, maxErrRate float64) {
	r.Pass = true
	add := func(name, want, got string, ok bool) {
		r.SLOs = append(r.SLOs, sloResult{Name: name, Want: want, Got: got, OK: ok})
		if !ok {
			r.Pass = false
		}
	}
	errRate := 0.0
	if r.Requests > 0 {
		errRate = float64(r.Errors) / float64(r.Requests)
	}
	add("error-rate", fmt.Sprintf("<= %.4f", maxErrRate), fmt.Sprintf("%.4f (%d/%d)", errRate, r.Errors, r.Requests), errRate <= maxErrRate)
	if maxP50 > 0 {
		add("p50-latency", "<= "+maxP50.String(), r.Overall.P50.String(), r.Overall.P50 <= maxP50)
	}
	if maxP99 > 0 {
		add("p99-latency", "<= "+maxP99.String(), r.Overall.P99.String(), r.Overall.P99 <= maxP99)
	}
	if maxDiskP99 > 0 {
		st := r.PerClass[classDisk.String()]
		add("disk-p99", "<= "+maxDiskP99.String(), st.P99.String(), st.P99 <= maxDiskP99)
	}
	if minRows > 0 {
		add("rows-per-sec", fmt.Sprintf(">= %.0f", minRows), fmt.Sprintf("%.0f", r.RowsPerSec), r.RowsPerSec >= minRows)
	}
}

func (r *report) render(w *os.File) {
	fmt.Fprintf(w, "qoeload: %d requests over %d conns (blend %s, experiments=%s, scale=%s)\n",
		r.Requests, r.Conns, r.Blend, r.Experiments, r.Scale)
	fmt.Fprintf(w, "  wall %.2fs   %.1f req/s   %.0f rows/s (%d rows)   %d errors   %d sheds retried\n",
		r.WallSeconds, r.ReqPerSec, r.RowsPerSec, r.Rows, r.Errors, r.Sheds)
	fmt.Fprintf(w, "  heap: %.0f allocs/req, %.0f B/req (client+server, in-process)\n", r.AllocsPerReq, r.BytesPerReq)
	fmt.Fprintf(w, "  %-8s %8s %12s %12s %12s %8s\n", "class", "reqs", "p50", "p99", "max", "errors")
	classes := []string{"overall", classCold.String(), classCached.String(), classDedup.String(), classDisk.String()}
	for _, name := range classes {
		st := r.Overall
		if name != "overall" {
			st = r.PerClass[name]
		}
		if st.Requests == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-8s %8d %12s %12s %12s %8d\n", name, st.Requests, st.P50, st.P99, st.Max, st.Errors)
	}
	if m := r.ServerMetrics; m != nil {
		fmt.Fprintf(w, "  server: accepted=%d deduped=%d cache_hit=%d rejected=%d completed=%d bytes=%d\n",
			m.RunsAccepted, m.RunsDeduped, m.RunsCacheHit, m.RunsRejected, m.RunsCompleted, m.BytesStreamed)
		for _, name := range []string{"cold", "mem", "disk", "peer", "dedup"} {
			st, ok := m.Latency[name]
			if !ok || st.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "  server-latency %-6s %8d reqs   p50 %.1fms   p99 %.1fms\n",
				name, st.Count, st.P50*1e3, st.P99*1e3)
		}
	}
	for _, s := range r.SLOs {
		verdict := "PASS"
		if !s.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  SLO %-14s want %-12s got %-24s %s\n", s.Name, s.Want, s.Got, verdict)
	}
	if r.Pass {
		fmt.Fprintln(w, "qoeload: all SLOs met")
	} else {
		fmt.Fprintln(w, "qoeload: SLO VIOLATION")
	}
}
