package fabric

import (
	"bytes"
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/population"
	"repro/internal/testlog"
	"repro/pkg/qoe"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sharedExec backs every stub worker in this package so the quick-scale
// testbed recordings warm exactly once for the whole test binary — the same
// amortization a long-running qoed worker enjoys.
var sharedExec = qoe.NewShardExecutor(2)

// refTestbed is the in-process reference testbed (quick scale, master seed
// 1), shared across tests for the same reason.
var (
	refOnce sync.Once
	refTB   *core.Testbed
)

func refTestbed() *core.Testbed {
	refOnce.Do(func() { refTB = core.NewTestbed(core.QuickScale(), 1) })
	return refTB
}

// newWorker boots a stub qoed worker: /healthz plus the real shard executor
// behind /v1/shard. wrap, when non-nil, interposes on shard requests only —
// health checks always pass — which is how the fault tests inject worker
// death, garbled streams, and backpressure.
func newWorker(t testing.TB, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	shard := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		seed, _ := strconv.ParseInt(q.Get("seed"), 10, 64)
		lo, _ := strconv.Atoi(q.Get("lo"))
		hi, _ := strconv.Atoi(q.Get("hi"))
		cell, _ := strconv.Atoi(q.Get("cell"))
		req := qoe.ShardRequest{
			Study: q.Get("study"),
			Scale: qoe.Scale(q.Get("scale")),
			Seed:  seed,
			Range: qoe.ShardRange{Lo: lo, Hi: hi},
			Cell:  cell,
		}
		if err := sharedExec.Run(r.Context(), req, w); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
	}))
	if wrap != nil {
		shard = wrap(shard)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.WriteHeader(http.StatusOK)
		case "/v1/shard":
			shard.ServeHTTP(w, r)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// failFirst fault-injects the first n shard requests a worker sees:
//
//	"kill"    the worker dies mid-stream (half the response, no summary)
//	"garble"  the response arrives bit-flipped (first byte corrupted)
//	"429"     the worker sheds load with 429 + Retry-After
//
// Requests beyond the first n pass through untouched, so retries on the
// same worker can also succeed.
func failFirst(n int64, mode string) func(http.Handler) http.Handler {
	var count int64
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if atomic.AddInt64(&count, 1) > n {
				next.ServeHTTP(w, r)
				return
			}
			switch mode {
			case "kill":
				rec := httptest.NewRecorder()
				next.ServeHTTP(rec, r)
				b := rec.Body.Bytes()
				w.Write(b[:len(b)/2])
			case "garble":
				rec := httptest.NewRecorder()
				next.ServeHTTP(rec, r)
				b := rec.Body.Bytes()
				if len(b) > 0 {
					b[0] = 'X' // first event line no longer parses as JSON
				}
				w.Write(b)
			case "429":
				w.Header().Set("Retry-After", "1")
				http.Error(w, "worker saturated", http.StatusTooManyRequests)
			}
		})
	}
}

// localPopAB runs the canonical quick-scale pop-ab study in-process: the
// byte-identity reference every distributed run must reproduce exactly.
func localPopAB(t testing.TB, master int64) ([]population.ABCell, population.Config, population.ABResult) {
	t.Helper()
	if master != 1 {
		t.Fatal("reference testbed is pinned to master seed 1")
	}
	cells, err := experiments.PopABCells(refTestbed())
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.PopABConfig(core.DeriveSeed(master, qoe.StudyPopAB))
	want, err := population.RunAB(context.Background(), cells, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cells, cfg, want
}

func localPopRating(t testing.TB, master int64) ([]population.RatingCell, population.Config, population.RatingResult) {
	t.Helper()
	if master != 1 {
		t.Fatal("reference testbed is pinned to master seed 1")
	}
	cells, err := experiments.PopRatingCells(refTestbed())
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.PopABConfig(core.DeriveSeed(master, qoe.StudyPopRating))
	want, err := population.RunRating(context.Background(), cells, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cells, cfg, want
}

func newCoordinator(t testing.TB, cfg Config) *Coordinator {
	t.Helper()
	if cfg.Backoff == 0 {
		cfg.Backoff = time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func workerPool(t testing.TB, n int, wraps map[int]func(http.Handler) http.Handler) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = newWorker(t, wraps[i]).URL
	}
	return urls
}

func TestNewRequiresWorkers(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty worker pool")
	}
}

// TestDistributedMatchesLocalAcrossPoolSizes is the tentpole property: the
// distributed run of both canonical studies is deep-equal (hence, through
// the deterministic renderer, byte-identical) to the in-process run at every
// cluster size.
func TestDistributedMatchesLocalAcrossPoolSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-scale population runs; skipped in -short")
	}
	const master = 1
	cellsAB, cfgAB, wantAB := localPopAB(t, master)
	cellsRating, cfgRating, wantRating := localPopRating(t, master)

	for _, n := range []int{1, 3} {
		c := newCoordinator(t, Config{Workers: workerPool(t, n, nil)})
		gotAB, err := c.ForTuple(qoe.ScaleQuick, master).RunAB(context.Background(), cellsAB, cfgAB)
		if err != nil {
			t.Fatalf("%d workers: RunAB: %v", n, err)
		}
		if !reflect.DeepEqual(gotAB, wantAB) {
			t.Fatalf("%d workers: distributed pop-ab diverged from local run", n)
		}
		gotRating, err := c.ForTuple(qoe.ScaleQuick, master).RunRating(context.Background(), cellsRating, cfgRating)
		if err != nil {
			t.Fatalf("%d workers: RunRating: %v", n, err)
		}
		if !reflect.DeepEqual(gotRating, wantRating) {
			t.Fatalf("%d workers: distributed pop-rating diverged from local run", n)
		}
		if got := c.studiesReduced.Value(); got != 2 {
			t.Errorf("%d workers: studies_reduced = %d, want 2", n, got)
		}
		if got, want := c.shardsComputed.Value(), int64(2*cfgAB.Normalize().Shards); got != want {
			t.Errorf("%d workers: shards_computed = %d, want %d", n, got, want)
		}
	}
}

// TestRetriesSurviveWorkerFaults injects each fault mode into one worker of
// a three-worker pool and demands the study still reduce byte-identically,
// with the retries and worker failures visible in the metrics.
func TestRetriesSurviveWorkerFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-scale population runs; skipped in -short")
	}
	const master = 1
	cells, cfg, want := localPopAB(t, master)

	for _, mode := range []string{"kill", "garble", "429"} {
		t.Run(mode, func(t *testing.T) {
			pool := workerPool(t, 3, map[int]func(http.Handler) http.Handler{0: failFirst(2, mode)})
			c := newCoordinator(t, Config{Workers: pool, Logger: testlog.New(t)})
			got, err := c.ForTuple(qoe.ScaleQuick, master).RunAB(context.Background(), cells, cfg)
			if err != nil {
				t.Fatalf("RunAB with %s fault: %v", mode, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("result diverged from local run after %s fault", mode)
			}
			if c.shardRetries.Value() == 0 {
				t.Error("no shard retries recorded despite injected faults")
			}
			if c.workerFailures.Value() == 0 {
				t.Error("no worker failures recorded despite injected faults")
			}
		})
	}
}

// TestExhaustedRetriesFailCleanly: when every attempt of a sub-job fails,
// the study must return a clean error naming the lost shards — promptly,
// not hang — and no result.
func TestExhaustedRetriesFailCleanly(t *testing.T) {
	dead := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "worker storage failed", http.StatusInternalServerError)
		})
	}
	pool := workerPool(t, 2, map[int]func(http.Handler) http.Handler{0: dead, 1: dead})
	c := newCoordinator(t, Config{Workers: pool, MaxAttempts: 2})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// The canonical config routes through the fabric; cells are never reached
	// because every dispatch fails before reduce.
	cfg := experiments.PopABConfig(core.DeriveSeed(1, qoe.StudyPopAB))
	_, err := c.ForTuple(qoe.ScaleQuick, 1).RunAB(ctx, nil, cfg)
	if err == nil {
		t.Fatal("study succeeded with every worker dead")
	}
	if ctx.Err() != nil {
		t.Fatal("exhausted retries hit the 30s guard instead of failing promptly")
	}
	msg := err.Error()
	if !strings.Contains(msg, "fabric: shards [") || !strings.Contains(msg, "failed after 2 attempts") {
		t.Errorf("error does not name the lost shards and attempt budget: %v", err)
	}
	if got := c.studiesFailed.Value(); got != 1 {
		t.Errorf("studies_failed = %d, want 1", got)
	}
}

// TestNonCanonicalConfigFallsBackLocally: only the canonical pop-* tuples
// are distributed; an ad-hoc engine call (a sweep panel, a test config, a
// foreign seed) must run locally and never touch the pool.
func TestNonCanonicalConfigFallsBackLocally(t *testing.T) {
	poisoned := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t.Error("non-canonical config was dispatched to a worker")
			http.Error(w, "unreachable", http.StatusInternalServerError)
		})
	}
	pool := workerPool(t, 1, map[int]func(http.Handler) http.Handler{0: poisoned})
	c := newCoordinator(t, Config{Workers: pool})

	cells, err := experiments.PopABCells(refTestbed())
	if err != nil {
		t.Fatal(err)
	}
	adhoc := population.Config{Group: experiments.PopABConfig(0).Group, Participants: 2_000, Shards: 4, Seed: 5, Conformance: true}
	want, err := population.RunAB(context.Background(), cells, adhoc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ForTuple(qoe.ScaleQuick, 1).RunAB(context.Background(), cells, adhoc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("local fallback diverged from direct engine call")
	}
	if got := c.studiesFellBack.Value(); got != 1 {
		t.Errorf("studies_fell_back = %d, want 1", got)
	}
	if got := c.jobsDispatched.Value(); got != 0 {
		t.Errorf("jobs_dispatched = %d, want 0", got)
	}
}

// TestAdaptiveShardRangeDistributes: a canonical round grant of the
// adaptive study ships to the worker pool as a per-cell shard range and
// returns exactly the states a local engine call produces, with the grant
// visible in the adaptive counters.
func TestAdaptiveShardRangeDistributes(t *testing.T) {
	const master = 1
	c := newCoordinator(t, Config{Workers: workerPool(t, 2, nil)})
	specs, err := experiments.PopSweepAdaptiveSpecs(context.Background(), refTestbed(), core.DeriveSeed(master, qoe.StudyPopSweepAdaptive))
	if err != nil {
		t.Fatal(err)
	}
	const cell = 1
	rng := population.ShardRange{Lo: 0, Hi: 3}
	want, err := population.RunABRange(context.Background(), specs[cell].Cells, specs[cell].Config, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ForTuple(qoe.ScaleQuick, master).RunABShardRange(context.Background(), qoe.StudyPopSweepAdaptive, cell, specs[cell].Cells, specs[cell].Config, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("distributed adaptive grant diverged from local engine call")
	}
	if grants, shards := c.adaptiveGrants.Value(), c.adaptiveShards.Value(); grants != 1 || shards != int64(rng.Count()) {
		t.Errorf("adaptive_grants = %d, adaptive_shards = %d, want 1 and %d", grants, shards, rng.Count())
	}
	if got := c.adaptiveFellBack.Value(); got != 0 {
		t.Errorf("adaptive_fell_back = %d, want 0", got)
	}
}

// TestAdaptiveShardRangeFallsBackLocally: a grant whose config is not the
// canonical adaptive cell config never reaches a worker — the worker would
// re-derive the canonical cell and silently compute the wrong bytes — so
// the coordinator runs it locally and counts the fallback.
func TestAdaptiveShardRangeFallsBackLocally(t *testing.T) {
	poisoned := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t.Error("non-canonical adaptive grant was dispatched to a worker")
			http.Error(w, "unreachable", http.StatusInternalServerError)
		})
	}
	pool := workerPool(t, 1, map[int]func(http.Handler) http.Handler{0: poisoned})
	c := newCoordinator(t, Config{Workers: pool})
	specs, err := experiments.PopSweepAdaptiveSpecs(context.Background(), refTestbed(), core.DeriveSeed(1, qoe.StudyPopSweepAdaptive))
	if err != nil {
		t.Fatal(err)
	}
	adhoc := specs[0].Config
	adhoc.Participants /= 2 // no longer the canonical cell config
	rng := population.ShardRange{Lo: 0, Hi: 2}
	want, err := population.RunABRange(context.Background(), specs[0].Cells, adhoc, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ForTuple(qoe.ScaleQuick, 1).RunABShardRange(context.Background(), qoe.StudyPopSweepAdaptive, 0, specs[0].Cells, adhoc, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("local adaptive fallback diverged from direct engine call")
	}
	if got := c.adaptiveFellBack.Value(); got != 1 {
		t.Errorf("adaptive_fell_back = %d, want 1", got)
	}
	if got := c.jobsDispatched.Value(); got != 0 {
		t.Errorf("jobs_dispatched = %d, want 0", got)
	}
}

// TestCheckWorkers: a mixed pool reports per-worker health; a fully dead
// pool is a boot error.
func TestCheckWorkers(t *testing.T) {
	live := newWorker(t, nil)
	deadSrv := httptest.NewServer(http.NotFoundHandler())
	deadSrv.Close() // connection refused from here on

	c := newCoordinator(t, Config{Workers: []string{live.URL, deadSrv.URL}, Logger: testlog.New(t)})
	if err := c.CheckWorkers(context.Background()); err != nil {
		t.Fatalf("CheckWorkers with one live worker: %v", err)
	}
	status := c.WorkersStatus()
	if len(status) != 2 || !status[0].Healthy || status[1].Healthy {
		t.Fatalf("worker status = %+v, want [healthy, unhealthy]", status)
	}
	if status[1].Failures == 0 {
		t.Error("dead worker has no recorded failures")
	}

	allDead := newCoordinator(t, Config{Workers: []string{deadSrv.URL}})
	if err := allDead.CheckWorkers(context.Background()); err == nil {
		t.Fatal("CheckWorkers accepted a pool with zero healthy workers")
	}
}

// TestPlanCoversShardSpace: every plan is a contiguous ascending partition
// of the study's full shard space, whatever the pool geometry.
func TestPlanCoversShardSpace(t *testing.T) {
	total, err := qoe.StudyShards(qoe.StudyPopAB)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 5, 7, 64, 100} {
		p, err := planStudy(qoe.StudyPopAB, qoe.ScaleQuick, 1, workers)
		if err != nil {
			t.Fatal(err)
		}
		lo := 0
		for _, j := range p.Jobs {
			if j.Lo != lo || j.Hi <= j.Lo {
				t.Fatalf("workers=%d: job %s breaks contiguity at %d", workers, j, lo)
			}
			lo = j.Hi
		}
		if lo != total {
			t.Fatalf("workers=%d: plan covers [0,%d), want [0,%d)", workers, lo, total)
		}
	}
	if _, err := planStudy("pop-sweep", qoe.ScaleQuick, 1, 3); err == nil {
		t.Fatal("planned a study outside the shard protocol")
	}
}

// TestPlanGolden pins the rendered shard plan — the operator-facing view of
// how a study splits across a pool. Refresh with -update.
func TestPlanGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, tc := range []struct {
		study   string
		workers int
	}{
		{qoe.StudyPopAB, 3},
		{qoe.StudyPopRating, 2},
		{qoe.StudyPopAB, 1},
	} {
		p, err := planStudy(tc.study, qoe.ScaleQuick, 1, tc.workers)
		if err != nil {
			t.Fatal(err)
		}
		p.Render(&buf)
		buf.WriteByte('\n')
	}
	golden := filepath.Join("testdata", "plan.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("shard plan drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestAffinitySteersRepeatsToWarmWorkers: rerunning a study dispatches every
// sub-job's first attempt back to the worker that computed it last time —
// where the bytes are a cache replay — with the steering visible in the
// affinity_hits counter and in each worker seeing exactly its first-run
// request load again.
func TestAffinitySteersRepeatsToWarmWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-scale population runs; skipped in -short")
	}
	const master = 1
	cells, cfg, want := localPopAB(t, master)

	var counts [3]atomic.Int64
	wraps := map[int]func(http.Handler) http.Handler{}
	for i := range counts {
		i := i
		wraps[i] = func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				counts[i].Add(1)
				next.ServeHTTP(w, r)
			})
		}
	}
	c := newCoordinator(t, Config{Workers: workerPool(t, 3, wraps)})

	got, err := c.ForTuple(qoe.ScaleQuick, master).RunAB(context.Background(), cells, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("first distributed run diverged from local")
	}
	if hits := c.affinityHit.Value(); hits != 0 {
		t.Fatalf("cold run recorded %d affinity hits, want 0", hits)
	}
	jobs := c.jobsDispatched.Value()
	var first [3]int64
	for i := range counts {
		first[i] = counts[i].Load()
	}

	got, err = c.ForTuple(qoe.ScaleQuick, master).RunAB(context.Background(), cells, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("warm distributed run diverged from local")
	}
	if hits := c.affinityHit.Value(); hits != jobs {
		t.Fatalf("affinity_hits = %d after the rerun, want one per sub-job (%d)", hits, jobs)
	}
	for i := range counts {
		if delta := counts[i].Load() - first[i]; delta != first[i] {
			t.Errorf("worker %d served %d rerun requests, want its first-run load %d (steering drifted)", i, delta, first[i])
		}
	}
}

// TestWorkersStatusObserved: the observed snapshot carries each healthy
// worker's own /metrics slice, skips scraping dead workers, and never flips
// health state.
func TestWorkersStatusObserved(t *testing.T) {
	metricful := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.WriteHeader(http.StatusOK)
		case "/metrics":
			w.Write([]byte(`{"runs_started": 3, "cache_hits_mem": 5, "cache_hits_disk": 2, "cache_hits_peer": 1, "cache_hit_rate": 0.7}`))
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(metricful.Close)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	c := newCoordinator(t, Config{Workers: []string{metricful.URL, dead.URL}, Logger: testlog.New(t)})
	if err := c.CheckWorkers(context.Background()); err != nil {
		t.Fatal(err)
	}
	status := c.WorkersStatusObserved(context.Background())
	if len(status) != 2 {
		t.Fatalf("status = %d workers, want 2", len(status))
	}
	if !status[0].Healthy || status[0].Metrics == nil {
		t.Fatalf("healthy worker not observed: %+v", status[0])
	}
	m := status[0].Metrics
	if m.RunsStarted != 3 || m.CacheHitsMem != 5 || m.CacheHitsDisk != 2 || m.CacheHitsPeer != 1 || m.CacheHitRate != 0.7 {
		t.Fatalf("scraped metrics = %+v", m)
	}
	if status[1].Healthy || status[1].Metrics != nil {
		t.Fatalf("dead worker = %+v, want unhealthy and unscraped", status[1])
	}
	// Observation is read-only: the pool's health is as CheckWorkers left it.
	after := c.WorkersStatus()
	if !after[0].Healthy || after[1].Healthy {
		t.Fatalf("observation flipped health: %+v", after)
	}
}
