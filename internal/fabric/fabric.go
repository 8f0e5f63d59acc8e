// Package fabric is the coordinator half of the distributed study fabric:
// it splits a canonical pop-* population study into shard-range sub-jobs,
// fans them out to a pool of qoed workers over the qoe.Client shard
// protocol with bounded in-flight jobs and retry-with-backoff, and reduces
// the returned per-shard aggregates — in ascending shard order, replaying
// the engine's exact merge fold — into a result byte-identical to a
// single-node run at any cluster size.
//
// Work enters the fabric only through Coordinator.ForTuple, the
// coordinator's experiments.PopulationBackend view of one (scale, master
// seed) run tuple. Plugging that view into a session
// (qoe.WithPopulationBackend) distributes the pop-ab and pop-rating engine
// calls and the pop-sweep-adaptive round grants while leaving every byte of
// the session's output unchanged. Failure semantics: a sub-job that dies
// with one worker (connection error, truncated or garbled stream, 429
// backpressure) is retried on the next live worker with exponential
// backoff; only when a sub-job exhausts its attempt budget does the study
// fail, with a clean error naming the lost shards.
package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/population"
	"repro/internal/telemetry"
	"repro/pkg/qoe"
)

// Config sizes a Coordinator. Workers is required; zero values elsewhere
// take defaults.
type Config struct {
	// Workers lists the base URLs of the qoed workers (e.g.
	// "http://127.0.0.1:8081").
	Workers []string
	// MaxAttempts is the per-sub-job attempt budget across workers
	// (default 4).
	MaxAttempts int
	// Backoff is the base retry delay, doubled per attempt (default 100ms).
	// A 429's Retry-After hint takes precedence when longer.
	Backoff time.Duration
	// HTTPClient serves all workers (default http.DefaultClient; pass one
	// without a global timeout, shard jobs run as long as the simulation).
	HTTPClient *http.Client
	// Logger receives structured dispatch/retry/health events (default:
	// discard).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.Logger == nil {
		c.Logger = telemetry.Discard
	}
	return c
}

// worker is one pool member with its lazily tracked health.
type worker struct {
	url    string
	client *qoe.Client

	mu       sync.Mutex
	healthy  bool
	failures int64
}

// setHealthy records a health observation and reports whether it was a
// TRANSITION (healthy→unhealthy or unhealthy→recovered) — the edge the
// structured health log events fire on, so a flapping worker logs per flap,
// not per attempt.
func (w *worker) setHealthy(ok bool) (changed bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !ok {
		w.failures++
	}
	changed = w.healthy != ok
	w.healthy = ok
	return changed
}

func (w *worker) state() (bool, int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy, w.failures
}

// Coordinator fans canonical pop-* studies out over a worker pool. Safe for
// concurrent use; one coordinator backs many sessions, each through the
// ForTuple view of its own (scale, master seed) tuple.
type Coordinator struct {
	cfg     Config
	workers []*worker

	// log receives the coordinator's structured events: dispatch retries,
	// worker health transitions, retry exhaustion.
	log *slog.Logger

	// rr is the round-robin cursor spreading sub-jobs across the pool.
	rrMu sync.Mutex
	rr   int

	// affinity remembers, per sub-job identity, the worker that last
	// computed it. A worker that served a sub-job holds its bytes in its
	// result cache (and spill store), so re-dispatching the same sub-job
	// there — post-retry re-reduces, repeated studies after coordinator
	// restarts of the study, prewarm overlaps — replays warm bytes instead
	// of re-simulating on a cold sibling. Bounded FIFO, entries ~100 bytes.
	affMu       sync.Mutex
	affinity    map[string]*worker
	affOrder    []string
	affinityHit expvar.Int

	// Counters exported under "fabric" in the daemon's /metrics.
	jobsDispatched  expvar.Int
	jobsCompleted   expvar.Int
	shardsComputed  expvar.Int
	shardRetries    expvar.Int
	workerFailures  expvar.Int
	studiesReduced  expvar.Int
	studiesFailed   expvar.Int
	studiesFellBack expvar.Int
	// Adaptive-study counters: round-barrier grants dispatched as sub-jobs,
	// the shards they covered, and non-canonical calls that ran locally.
	adaptiveGrants   expvar.Int
	adaptiveShards   expvar.Int
	adaptiveFellBack expvar.Int
	vars             *expvar.Map
}

// affinityRetention bounds the warm-worker affinity table.
const affinityRetention = 4096

// New builds a Coordinator over the worker pool. Workers start out presumed
// healthy; CheckWorkers probes them eagerly.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("fabric: no workers configured")
	}
	cfg = cfg.withDefaults()
	c := &Coordinator{cfg: cfg, log: cfg.Logger, affinity: map[string]*worker{}}
	for _, u := range cfg.Workers {
		c.workers = append(c.workers, &worker{url: u, client: qoe.NewClient(u, cfg.HTTPClient), healthy: true})
	}
	c.vars = new(expvar.Map).Init()
	c.vars.Set("affinity_hits", &c.affinityHit)
	c.vars.Set("jobs_dispatched", &c.jobsDispatched)
	c.vars.Set("jobs_completed", &c.jobsCompleted)
	c.vars.Set("shards_computed", &c.shardsComputed)
	c.vars.Set("shard_retries", &c.shardRetries)
	c.vars.Set("worker_failures", &c.workerFailures)
	c.vars.Set("studies_reduced", &c.studiesReduced)
	c.vars.Set("studies_failed", &c.studiesFailed)
	c.vars.Set("studies_fell_back", &c.studiesFellBack)
	c.vars.Set("adaptive_grants", &c.adaptiveGrants)
	c.vars.Set("adaptive_shards", &c.adaptiveShards)
	c.vars.Set("adaptive_fell_back", &c.adaptiveFellBack)
	c.vars.Set("workers", expvar.Func(func() any { return len(c.workers) }))
	c.vars.Set("workers_healthy", expvar.Func(func() any {
		n := 0
		for _, w := range c.workers {
			if ok, _ := w.state(); ok {
				n++
			}
		}
		return n
	}))
	return c, nil
}

// Vars returns the coordinator's expvar map for mounting under /metrics.
func (c *Coordinator) Vars() expvar.Var { return c.vars }

// WorkerStatus is one pool member's state as reported by
// /v1/fabric/workers. Metrics, when populated (WorkersStatusObserved),
// carries the worker's own counter slice — run outcomes and the per-tier
// cache hit counters — making fleet-wide hit rates visible from the
// coordinator alone.
type WorkerStatus struct {
	URL      string             `json:"url"`
	Healthy  bool               `json:"healthy"`
	Failures int64              `json:"failures"`
	Metrics  *qoe.DaemonMetrics `json:"metrics,omitempty"`
}

// WorkersStatus snapshots the pool for the fabric status endpoint.
func (c *Coordinator) WorkersStatus() []WorkerStatus {
	out := make([]WorkerStatus, len(c.workers))
	for i, w := range c.workers {
		ok, fails := w.state()
		out[i] = WorkerStatus{URL: w.url, Healthy: ok, Failures: fails}
	}
	return out
}

// WorkersStatusObserved snapshots the pool and, best effort, scrapes each
// healthy worker's /metrics into the snapshot (concurrently — one slow
// worker doesn't serialize the endpoint). A worker that fails the scrape
// just reports without Metrics; observation never flips health state, and
// dead workers aren't probed at all.
func (c *Coordinator) WorkersStatusObserved(ctx context.Context) []WorkerStatus {
	out := c.WorkersStatus()
	var wg sync.WaitGroup
	for i := range out {
		if !out[i].Healthy {
			continue
		}
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			if m, err := w.client.Metrics(ctx); err == nil {
				out[i].Metrics = &m
			}
		}(i, c.workers[i])
	}
	wg.Wait()
	return out
}

// CheckWorkers probes every worker's /healthz, records the results, and
// returns an error if no worker answers — the registration step a
// coordinator runs at boot.
func (c *Coordinator) CheckWorkers(ctx context.Context) error {
	up := 0
	for _, w := range c.workers {
		ok := w.client.Healthy(ctx)
		recovered := w.setHealthy(ok) && ok
		if ok {
			up++
			if recovered {
				c.log.Info("worker recovered", "worker", w.url)
			}
		} else {
			c.workerFailures.Add(1)
			c.log.Warn("worker failed health check", "worker", w.url)
		}
	}
	if up == 0 {
		return fmt.Errorf("fabric: none of %d workers are healthy", len(c.workers))
	}
	c.log.Info("workers healthy", "up", up, "total", len(c.workers))
	return nil
}

// planFor splits a study at one run tuple, with planStudy's default job
// size.
func (c *Coordinator) planFor(study string, scale qoe.Scale, seed int64) (Plan, error) {
	return planStudy(study, scale, seed, len(c.workers), 0)
}

// nextWorker picks a dispatch target: round-robin over healthy workers,
// falling back to plain round-robin when none are marked healthy (so a
// fully-degraded pool still gets retry probes instead of deadlocking).
func (c *Coordinator) nextWorker() *worker {
	c.rrMu.Lock()
	defer c.rrMu.Unlock()
	for i := 0; i < len(c.workers); i++ {
		w := c.workers[c.rr%len(c.workers)]
		c.rr++
		if ok, _ := w.state(); ok {
			return w
		}
	}
	w := c.workers[c.rr%len(c.workers)]
	c.rr++
	return w
}

// subJobKey identifies a sub-job across studies: the exact tuple a worker's
// result cache keys its shard stream by. Cell joins the key so two grants
// of different adaptive cells can never share a warm home entry.
func subJobKey(req qoe.ShardRequest) string {
	return fmt.Sprintf("%s|%d|%s|%d|%s", req.Study, req.Cell, req.Scale, req.Seed, req.Range)
}

// warmWorker returns the worker that last completed this sub-job, if it is
// still marked healthy — the dispatch steer that turns a repeat of a
// sub-job into a cache replay instead of a fresh simulation on a cold
// sibling.
func (c *Coordinator) warmWorker(key string) *worker {
	c.affMu.Lock()
	w := c.affinity[key]
	c.affMu.Unlock()
	if w == nil {
		return nil
	}
	if ok, _ := w.state(); !ok {
		return nil
	}
	return w
}

// recordAffinity remembers the worker now holding this sub-job warm.
func (c *Coordinator) recordAffinity(key string, w *worker) {
	c.affMu.Lock()
	defer c.affMu.Unlock()
	if _, ok := c.affinity[key]; !ok {
		c.affOrder = append(c.affOrder, key)
		for len(c.affOrder) > affinityRetention {
			delete(c.affinity, c.affOrder[0])
			c.affOrder = c.affOrder[1:]
		}
	}
	c.affinity[key] = w
}

// runJob executes one sub-job with the retry policy: the first attempt is
// steered to the worker that last computed this sub-job (it replays warm
// bytes instead of simulating), then each attempt goes to the next live
// worker; failures (connection death, truncated or garbled stream,
// backpressure) mark the worker unhealthy, count a retry, and back off —
// exponentially from Config.Backoff, or the server's Retry-After hint on a
// 429 if longer. A success re-marks the worker healthy and records it as
// the sub-job's warm home.
func (c *Coordinator) runJob(ctx context.Context, req qoe.ShardRequest) ([]qoe.ShardData, error) {
	r := req.Range
	key := subJobKey(req)
	tc := telemetry.FromContext(ctx)
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			c.shardRetries.Add(1)
			delay := c.cfg.Backoff << (attempt - 1)
			var retryable *qoe.RetryableError
			if errors.As(lastErr, &retryable) && retryable.RetryAfter > delay {
				delay = retryable.RetryAfter
			}
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		var w *worker
		if attempt == 0 {
			// Affinity applies only to the first attempt: if the warm worker
			// just failed this very sub-job, retries must move on.
			if w = c.warmWorker(key); w != nil {
				c.affinityHit.Add(1)
			}
		}
		if w == nil {
			w = c.nextWorker()
		}
		c.jobsDispatched.Add(1)
		sp := tc.Start("dispatch")
		sp.Attr("worker", w.url)
		sp.Attr("shards", r.String())
		sp.Attr("attempt", strconv.Itoa(attempt+1))
		attemptCtx := ctx
		if sp != nil {
			// Re-parent the trace under this attempt's span: the client
			// injects the traceparent header from this context, so the
			// worker's spans hang off the exact dispatch that reached it —
			// retries stitch as sibling dispatch spans, failed and
			// succeeding workers both recorded.
			attemptCtx = telemetry.NewContext(ctx, telemetry.TraceContext{Tracer: tc.Tracer, TraceID: tc.TraceID, Parent: sp.ID()})
		}
		data, err := w.client.RunShards(attemptCtx, req)
		sp.EndErr(err)
		if err == nil {
			if w.setHealthy(true) {
				c.log.Info("worker recovered", "worker", w.url, "shards", r.String(), "attempt", attempt+1)
			}
			c.recordAffinity(key, w)
			c.jobsCompleted.Add(1)
			c.shardsComputed.Add(int64(len(data)))
			c.collectWorkerTrace(ctx, w, tc)
			return data, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
		if w.setHealthy(false) {
			c.log.Warn("worker unhealthy", "worker", w.url, "shards", r.String(), "attempt", attempt+1)
		}
		c.workerFailures.Add(1)
		c.log.Warn("shard attempt failed", "worker", w.url, "shards", r.String(), "attempt", attempt+1, "err", err)
	}
	c.log.Error("shard retries exhausted", "shards", r.String(), "attempts", c.cfg.MaxAttempts, "err", lastErr)
	return nil, fmt.Errorf("fabric: shards %s failed after %d attempts: %w", r, c.cfg.MaxAttempts, lastErr)
}

// collectWorkerTrace stitches the worker half of a completed sub-job into
// the coordinator's trace by fetching the worker's span dump for the
// propagated trace ID and merging it under the worker's URL as origin.
// Strictly best effort: an unreachable worker, a disabled worker-side
// tracer, or an already-evicted trace just leaves the coordinator-side
// spans standing. The worker records its simulate spans before sealing the
// shard stream, so a dump fetched after RunShards returns always carries
// them.
func (c *Coordinator) collectWorkerTrace(ctx context.Context, w *worker, tc telemetry.TraceContext) {
	if tc.Tracer == nil || tc.TraceID == "" {
		return
	}
	dump, err := w.client.Trace(ctx, tc.TraceID)
	if err != nil {
		return
	}
	tc.Tracer.Merge(tc.TraceID, w.url, dump.Spans)
}

// dispatch runs every sub-job of a plan, at most two per worker in flight,
// and returns the per-shard states in ascending shard order. The first
// failed sub-job cancels the rest.
func (c *Coordinator) dispatch(ctx context.Context, plan Plan) ([]qoe.ShardData, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([][]qoe.ShardData, len(plan.Jobs))
	sem := make(chan struct{}, 2*len(c.workers))
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for i, r := range plan.Jobs {
		wg.Add(1)
		go func(i int, r qoe.ShardRange) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				return
			}
			data, err := c.runJob(ctx, qoe.ShardRequest{Study: plan.Study, Scale: plan.Scale, Seed: plan.Seed, Range: r})
			if err != nil {
				errMu.Lock()
				if firstErr == nil && !errors.Is(err, context.Canceled) {
					firstErr = err
				}
				errMu.Unlock()
				cancel()
				return
			}
			results[i] = data
		}(i, r)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]qoe.ShardData, 0, plan.TotalShards)
	for _, part := range results {
		out = append(out, part...)
	}
	return out, nil
}

// tupleBackend is a Coordinator view pinned to one (scale, master seed) run
// tuple — what a daemon hands each served session, since different sessions
// serve different tuples over one shared coordinator.
type tupleBackend struct {
	c     *Coordinator
	scale qoe.Scale
	seed  int64 // master seed of the run
}

// ForTuple returns the coordinator's backend view for one run tuple: the
// only way work enters the fabric.
func (c *Coordinator) ForTuple(scale qoe.Scale, seed int64) experiments.PopulationBackend {
	return tupleBackend{c: c, scale: scale, seed: seed}
}

// canonical reports whether an engine call addresses the canonical config
// of a study cell for this view's master seed. Only such calls are shipped
// to the pool: a worker re-derives the canonical config from the tuple, so
// anything else (tests, sweeps, foreign tuples, overridden policies) would
// silently compute different bytes there.
func (b tupleBackend) canonical(study string, cell int, cfg population.Config) bool {
	want, _, ok := experiments.CanonicalConfig(study, core.DeriveSeed(b.seed, study), cell)
	return ok && cfg == want
}

// RunAB distributes a canonical pop-ab engine call. A config that is not
// the canonical pop-ab config for this view's master seed runs locally.
func (b tupleBackend) RunAB(ctx context.Context, cells []population.ABCell, cfg population.Config) (population.ABResult, error) {
	if !b.canonical(qoe.StudyPopAB, 0, cfg) {
		b.c.studiesFellBack.Add(1)
		return population.RunAB(ctx, cells, cfg)
	}
	return reduceStudy(ctx, b, qoe.StudyPopAB, func(states []population.ABShardState) (population.ABResult, error) {
		return population.ReduceAB(cells, cfg, states)
	})
}

// RunRating distributes a canonical pop-rating engine call, with the same
// canonical-config guard as RunAB.
func (b tupleBackend) RunRating(ctx context.Context, cells []population.RatingCell, cfg population.Config) (population.RatingResult, error) {
	if !b.canonical(qoe.StudyPopRating, 0, cfg) {
		b.c.studiesFellBack.Add(1)
		return population.RunRating(ctx, cells, cfg)
	}
	return reduceStudy(ctx, b, qoe.StudyPopRating, func(states []population.RatingShardState) (population.RatingResult, error) {
		return population.ReduceRating(cells, cfg, states)
	})
}

// reduceStudy plans, dispatches, and collects one distributed fixed-budget
// study, then folds its shard states — decoded as S, in ascending shard
// order — with reduce.
func reduceStudy[S, R any](ctx context.Context, b tupleBackend, study string, reduce func([]S) (R, error)) (R, error) {
	var res R
	plan, err := b.c.planFor(study, b.scale, b.seed)
	if err != nil {
		return res, err
	}
	data, err := b.c.dispatch(ctx, plan)
	if err != nil {
		b.c.studiesFailed.Add(1)
		return res, err
	}
	sp := telemetry.FromContext(ctx).Start("reduce")
	sp.Attr("study", study)
	states, err := decodeStates[S](data)
	if err == nil {
		res, err = reduce(states)
	}
	sp.EndErr(err)
	if err != nil {
		b.c.studiesFailed.Add(1)
		return res, err
	}
	b.c.studiesReduced.Add(1)
	return res, nil
}

// decodeStates decodes each shard's raw aggregate state as S.
func decodeStates[S any](data []qoe.ShardData) ([]S, error) {
	states := make([]S, len(data))
	for i, d := range data {
		if err := json.Unmarshal(d.State, &states[i]); err != nil {
			return nil, fmt.Errorf("fabric: decoding shard %d state: %w", d.Shard, err)
		}
	}
	return states, nil
}

// RunABShardRange distributes one round-barrier grant of one adaptive-study
// cell as a single sub-job, through the same retry/affinity machinery as
// fixed-budget sub-jobs. A grant that is not the canonical adaptive cell
// config for this view's master seed runs locally. Grants happen only at
// round barriers (the adaptive engine's contract), so the coordinator's
// accumulator fold sees exactly the states a local run would produce.
func (b tupleBackend) RunABShardRange(ctx context.Context, study string, cell int, cells []population.ABCell, cfg population.Config, r population.ShardRange) ([]population.ABShardState, error) {
	if !qoe.IsAdaptiveStudy(study) || !b.canonical(study, cell, cfg) {
		b.c.adaptiveFellBack.Add(1)
		return population.RunABRange(ctx, cells, cfg, r)
	}
	req := qoe.ShardRequest{
		Study: study, Cell: cell, Scale: b.scale, Seed: b.seed,
		Range: qoe.ShardRange{Lo: r.Lo, Hi: r.Hi},
	}
	data, err := b.c.runJob(ctx, req)
	if err != nil {
		b.c.studiesFailed.Add(1)
		return nil, err
	}
	states, err := decodeStates[population.ABShardState](data)
	if err != nil {
		b.c.studiesFailed.Add(1)
		return nil, err
	}
	b.c.adaptiveGrants.Add(1)
	b.c.adaptiveShards.Add(int64(len(states)))
	return states, nil
}
