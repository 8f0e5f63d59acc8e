// Package fabric is the coordinator half of the distributed study fabric:
// it splits a canonical pop-* population study into shard-range sub-jobs,
// fans them out to a pool of qoed workers over the qoe.Client shard
// protocol with bounded in-flight jobs and retry-with-backoff, and reduces
// the returned per-shard aggregates — in ascending shard order, replaying
// the engine's exact merge fold — into a result byte-identical to a
// single-node run at any cluster size.
//
// The Coordinator implements experiments.PopulationBackend, so plugging it
// into a session (qoe.WithPopulationBackend) distributes the pop-ab and
// pop-rating engine calls while leaving every byte of the session's output
// unchanged. Failure semantics: a sub-job that dies with one worker
// (connection error, truncated or garbled stream, 429 backpressure) is
// retried on the next live worker with exponential backoff; only when a
// sub-job exhausts its attempt budget does the study fail, with a clean
// error naming the lost shards.
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
	// Scale and Seed are the DEFAULT study tuple — what the coordinator's
	// own PopulationBackend methods assume. Seed is the MASTER seed
	// (workers re-derive per-study seeds from it). A daemon serving many
	// tuples pins each run's tuple with ForTuple instead.
	Scale qoe.Scale
	Seed  int64
	// MaxInFlight bounds concurrently dispatched sub-jobs (default
	// 2 × len(Workers)).
	MaxInFlight int
	// ShardsPerJob sizes sub-jobs (default ~4 jobs per worker).
	ShardsPerJob int
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
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * len(c.Workers)
	}
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
// concurrent use; one coordinator can back many sessions over its (scale,
// seed) tuple.
type Coordinator struct {
	cfg     Config
	workers []*worker

	// log receives the coordinator's structured events: dispatch retries,
	// worker health transitions, retry exhaustion.
	log *slog.Logger
	// tr, wired via SetTracer before traffic, is the fallback tracer for
	// contexts that carry a propagated trace identity without a tracer of
	// their own; contexts that carry both (the daemon's run contexts) use
	// theirs.
	tr *telemetry.Tracer

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

// SetTracer wires a tracer into the coordinator for contexts that propagate
// a trace identity without a tracer of their own. Call before the
// coordinator dispatches work (the daemon does this at Open); nil disables
// the fallback.
func (c *Coordinator) SetTracer(t *telemetry.Tracer) { c.tr = t }

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

// Plan returns the deterministic sub-job split for one study at the
// default tuple.
func (c *Coordinator) Plan(study string) (Plan, error) {
	return planStudy(study, c.cfg.Scale, c.cfg.Seed, len(c.workers), c.cfg.ShardsPerJob)
}

// planFor splits a study at an explicit tuple.
func (c *Coordinator) planFor(study string, scale qoe.Scale, seed int64) (Plan, error) {
	return planStudy(study, scale, seed, len(c.workers), c.cfg.ShardsPerJob)
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
	if tc.Tracer == nil {
		// Identity-only propagation: adopt the wired tracer. Still a no-op
		// when the context carries no trace at all (empty trace ID).
		tc.Tracer = c.tr
	}
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

// dispatch runs every sub-job of a plan with bounded in-flight concurrency
// and returns the per-shard states in ascending shard order. The first
// failed sub-job cancels the rest.
func (c *Coordinator) dispatch(ctx context.Context, plan Plan) ([]qoe.ShardData, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([][]qoe.ShardData, len(plan.Jobs))
	sem := make(chan struct{}, c.cfg.MaxInFlight)
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

// ForTuple returns the coordinator's backend view for one run tuple.
func (c *Coordinator) ForTuple(scale qoe.Scale, seed int64) experiments.PopulationBackend {
	return tupleBackend{c: c, scale: scale, seed: seed}
}

// RunAB implements experiments.PopulationBackend at the Config default
// tuple; see tupleBackend.RunAB.
func (c *Coordinator) RunAB(ctx context.Context, cells []population.ABCell, cfg population.Config) (population.ABResult, error) {
	return tupleBackend{c: c, scale: c.cfg.Scale, seed: c.cfg.Seed}.RunAB(ctx, cells, cfg)
}

// RunRating implements experiments.PopulationBackend at the Config default
// tuple; see tupleBackend.RunRating.
func (c *Coordinator) RunRating(ctx context.Context, cells []population.RatingCell, cfg population.Config) (population.RatingResult, error) {
	return tupleBackend{c: c, scale: c.cfg.Scale, seed: c.cfg.Seed}.RunRating(ctx, cells, cfg)
}

// runStudy plans, dispatches, and collects one distributed study, returning
// its raw shard states in ascending shard order.
func (b tupleBackend) runStudy(ctx context.Context, study string) ([]qoe.ShardData, error) {
	plan, err := b.c.planFor(study, b.scale, b.seed)
	if err != nil {
		return nil, err
	}
	data, err := b.c.dispatch(ctx, plan)
	if err != nil {
		b.c.studiesFailed.Add(1)
		return nil, err
	}
	return data, nil
}

// RunAB distributes a canonical pop-ab engine call. A config that is not
// the canonical pop-ab tuple for this view's master seed is run locally
// instead — only the canonical study is sharded, so ad-hoc engine calls
// (tests, sweeps, foreign tuples) can never be mis-distributed.
func (b tupleBackend) RunAB(ctx context.Context, cells []population.ABCell, cfg population.Config) (population.ABResult, error) {
	if cfg != experiments.PopABConfig(core.DeriveSeed(b.seed, qoe.StudyPopAB)) {
		b.c.studiesFellBack.Add(1)
		return population.RunAB(ctx, cells, cfg)
	}
	data, err := b.runStudy(ctx, qoe.StudyPopAB)
	if err != nil {
		return population.ABResult{}, err
	}
	sp := telemetry.FromContext(ctx).Start("reduce")
	sp.Attr("study", qoe.StudyPopAB)
	states := make([]population.ABShardState, len(data))
	for i, d := range data {
		if err := json.Unmarshal(d.State, &states[i]); err != nil {
			b.c.studiesFailed.Add(1)
			sp.EndErr(err)
			return population.ABResult{}, fmt.Errorf("fabric: decoding shard %d state: %w", d.Shard, err)
		}
	}
	res, err := population.ReduceAB(cells, cfg, states)
	sp.EndErr(err)
	if err != nil {
		b.c.studiesFailed.Add(1)
		return population.ABResult{}, err
	}
	b.c.studiesReduced.Add(1)
	return res, nil
}

// RunRating distributes a canonical pop-rating engine call, with the same
// canonical-config guard as RunAB.
func (b tupleBackend) RunRating(ctx context.Context, cells []population.RatingCell, cfg population.Config) (population.RatingResult, error) {
	if cfg != experiments.PopRatingConfig(core.DeriveSeed(b.seed, qoe.StudyPopRating)) {
		b.c.studiesFellBack.Add(1)
		return population.RunRating(ctx, cells, cfg)
	}
	data, err := b.runStudy(ctx, qoe.StudyPopRating)
	if err != nil {
		return population.RatingResult{}, err
	}
	sp := telemetry.FromContext(ctx).Start("reduce")
	sp.Attr("study", qoe.StudyPopRating)
	states := make([]population.RatingShardState, len(data))
	for i, d := range data {
		if err := json.Unmarshal(d.State, &states[i]); err != nil {
			b.c.studiesFailed.Add(1)
			sp.EndErr(err)
			return population.RatingResult{}, fmt.Errorf("fabric: decoding shard %d state: %w", d.Shard, err)
		}
	}
	res, err := population.ReduceRating(cells, cfg, states)
	sp.EndErr(err)
	if err != nil {
		b.c.studiesFailed.Add(1)
		return population.RatingResult{}, err
	}
	b.c.studiesReduced.Add(1)
	return res, nil
}

// RunABShardRange implements experiments.AdaptiveBackend: one round-barrier
// grant of one adaptive-study cell, dispatched as a single sub-job through
// the same retry/affinity machinery as fixed-budget sub-jobs. The guard
// mirrors RunAB's: only the canonical cell config for this view's master
// seed is distributed — the cell's config embeds its derived seed, so a
// foreign tuple (tests, ad-hoc engine calls, overridden adaptive policies
// changing nothing here — the policy lives above this call) can never be
// mis-distributed — everything else runs locally. Grants happen only at
// round barriers (the adaptive engine's contract), so the coordinator's
// accumulator fold sees exactly the states a local run would produce.
func (b tupleBackend) RunABShardRange(ctx context.Context, study string, cell int, cells []population.ABCell, cfg population.Config, r population.ShardRange) ([]population.ABShardState, error) {
	if !b.canonicalAdaptiveGrant(study, cell, cfg) {
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
	states := make([]population.ABShardState, len(data))
	for i, d := range data {
		if err := json.Unmarshal(d.State, &states[i]); err != nil {
			b.c.studiesFailed.Add(1)
			return nil, fmt.Errorf("fabric: decoding adaptive shard %d state: %w", d.Shard, err)
		}
	}
	b.c.adaptiveGrants.Add(1)
	b.c.adaptiveShards.Add(int64(len(states)))
	return states, nil
}

// canonicalAdaptiveGrant reports whether a shard-range grant addresses the
// canonical adaptive study cell for this view's master seed: the study is
// known, the cell index is in the grid, and the config is exactly the
// canonical derivation (which pins participants, votes, and the cell's own
// derived seed).
func (b tupleBackend) canonicalAdaptiveGrant(study string, cell int, cfg population.Config) bool {
	if study != qoe.StudyPopSweepAdaptive {
		return false
	}
	cfgs := experiments.PopSweepAdaptiveCellConfigs(core.DeriveSeed(b.seed, study))
	return cell >= 0 && cell < len(cfgs) && cfg == cfgs[cell]
}

// Backend returns the coordinator as the session-facing population backend
// at the default tuple; it exists for call-site clarity
// (qoe.WithPopulationBackend(f.Backend())).
func (c *Coordinator) Backend() experiments.PopulationBackend { return c }

// RunABShardRange implements experiments.AdaptiveBackend at the Config
// default tuple; see tupleBackend.RunABShardRange.
func (c *Coordinator) RunABShardRange(ctx context.Context, study string, cell int, cells []population.ABCell, cfg population.Config, r population.ShardRange) ([]population.ABShardState, error) {
	return tupleBackend{c: c, scale: c.cfg.Scale, seed: c.cfg.Seed}.RunABShardRange(ctx, study, cell, cells, cfg, r)
}
