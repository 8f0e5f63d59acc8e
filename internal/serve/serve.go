// Package serve is the study-serving engine behind the qoed daemon: a
// concurrent HTTP service that exposes the pkg/qoe experiment catalog and
// streams schema_version 1 NDJSON run output to many clients at once.
//
// The engine exploits the reproduction's central invariant — a run is a pure
// function of its canonical tuple (sorted experiments, scale, seed, schema
// version), so the same tuple always produces the same bytes — three ways:
//
//   - Singleflight dedup: concurrent requests for one tuple collapse onto a
//     single job. The simulation runs once and streams into an append-only
//     broadcast buffer; every subscriber replays that buffer from offset
//     zero, so all of them receive the identical byte stream no matter when
//     they attached.
//   - Result cache: finished streams enter a content-addressed, byte-bounded
//     LRU keyed by the tuple's ID. A repeat request replays the cached bytes
//     with zero simulation.
//   - Admission control: a bounded worker pool takes jobs from a bounded
//     queue; when the queue is full, new work is refused with 429 and a
//     Retry-After hint instead of being absorbed into unbounded memory.
//
// Runs execute with parallelism 1 inside the session, which keeps the whole
// stream — progress lines included — deterministic and byte-compatible with
// `qoebench -stream -parallel 1` (pinned by testdata/golden/
// table1.stream.jsonl); concurrency comes from running distinct tuples on
// distinct workers. Shutdown drains gracefully: admission stops, queued and
// in-flight runs finish (or, past the drain deadline, cancel cleanly through
// the context plumbing), and the result cache stays valid because cancelled
// runs are never cached.
package serve

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/pkg/qoe"
)

// Config sizes a Server. Zero values take defaults.
type Config struct {
	// Workers bounds how many simulations run concurrently (default
	// core.DefaultParallelism — one per core).
	Workers int
	// QueueDepth bounds how many accepted-but-not-started jobs may wait
	// (default 16). A full queue sheds load with 429.
	QueueDepth int
	// CacheBytes bounds the result cache's resident size (default 64 MiB).
	// Zero keeps the default; negative disables caching.
	CacheBytes int64
	// RetryAfter is the hint returned with 429 responses (default 2s).
	RetryAfter time.Duration
	// Logger receives structured lifecycle events, the spill store's
	// quarantine and sweep lines included (default: discard).
	Logger *slog.Logger
	// Tracer, when set, records run-lifecycle spans (admission, queue wait,
	// simulate, publish, disk and peer tiers) under the run's deterministic
	// trace ID and serves them at GET /debug/trace/{id}. Nil disables
	// tracing; the serving paths pay one nil check.
	Tracer *telemetry.Tracer
	// Fabric, when set, makes this daemon a coordinator: every served
	// session routes its canonical pop-* engine calls through the
	// coordinator's view of the run's own (scale, master seed) tuple, and
	// the coordinator's counters appear under "fabric" in /metrics and its
	// worker pool at GET /v1/fabric/workers.
	Fabric *fabric.Coordinator
	// StoreDir, when set, mounts the content-addressed disk spill store: a
	// durable tier under the RAM cache that survives restarts. Finished
	// streams are written through to it, RAM evictions demote to it instead
	// of discarding, and disk hits promote back into RAM.
	StoreDir string
	// Peers lists sibling daemons (base URLs) to ask for a missing run
	// before simulating it: on a miss of both local tiers, the worker probes
	// each peer's finished tiers and streams the bytes into its own store.
	// The singleflight job table already collapses concurrent waiters, so
	// one probe covers them all. A daemon may appear in its own peer list —
	// peer probes never trigger simulations, so self-probes just miss.
	Peers []string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = core.DefaultParallelism()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	switch {
	case c.CacheBytes == 0:
		c.CacheBytes = 64 << 20
	case c.CacheBytes < 0:
		c.CacheBytes = 0
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Second
	}
	if c.Logger == nil {
		c.Logger = telemetry.Discard
	}
	return c
}

// runFunc executes one canonical run, streaming its NDJSON bytes into w. It
// is a seam for tests (counting invocations, injecting slow or failing runs);
// production servers use (*Server).defaultRun.
type runFunc func(ctx context.Context, spec RunSpec, w io.Writer) error

// defaultRun executes the spec: shard sub-jobs through the shard executor
// (streaming per-shard aggregate states), full specs through a fresh
// qoe.Session. Session parallelism is pinned to 1 so the emitted stream is
// deterministic end to end — the property broadcast and cache replay turn
// into byte-identical responses.
func (s *Server) defaultRun(ctx context.Context, spec RunSpec, w io.Writer) error {
	if spec.Shard != nil {
		return s.shardExec.Run(ctx, qoe.ShardRequest{
			Study: spec.Shard.Study,
			Scale: spec.Scale,
			Seed:  spec.Seed,
			Range: spec.Shard.Range,
			Cell:  spec.Shard.Cell,
		}, w)
	}
	opts := []qoe.Option{
		qoe.WithScenarios(spec.Experiments...),
		qoe.WithScale(spec.Scale),
		qoe.WithSeed(spec.Seed),
		qoe.WithParallelism(1),
	}
	if s.cfg.Fabric != nil {
		// Each run pins the coordinator to its own (scale, master seed)
		// tuple, so one daemon distributes any tuple it serves.
		opts = append(opts, qoe.WithPopulationBackend(s.cfg.Fabric.ForTuple(spec.Scale, spec.Seed)))
	}
	sess, err := qoe.NewSession(opts...)
	if err != nil {
		return err
	}
	_, err = sess.Run(ctx, qoe.StreamSink(w))
	return err
}

// Server is the serving engine: job table, worker pool, result cache, and
// the HTTP API over them. Create with New, serve via ServeHTTP (it is an
// http.Handler), and always Shutdown (or Close) to stop the workers.
type Server struct {
	cfg       Config
	mux       *http.ServeMux
	cache     *resultCache
	store     *store.Store // durable spill tier; nil when StoreDir unset
	tiers     []*tier      // finished tiers, fastest first: RAM, then disk
	peers     []*qoe.Client
	met       *metrics
	runFn     runFunc
	shardExec *qoe.ShardExecutor
	log       *slog.Logger
	tr        *telemetry.Tracer     // nil: tracing disabled
	lat       *telemetry.LatencySet // per-class request latency histograms
	started   time.Time             // process uptime baseline for /metrics

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	live     map[string]*job // canonical ID → in-flight job (singleflight table)
	queue    chan *job
	draining bool
	// failed retains the last failedRetention failed/cancelled jobs as
	// tombstones so /v1/runs/{id} can report what happened (and the stream
	// endpoint can serve the partial, summary-less bytes) instead of
	// answering 404 the instant a run dies. Successful runs need no
	// tombstone — the result cache is their record.
	failed      map[string]*job
	failedOrder []*job
	// done is the bounded index of successfully completed runs: ID → spec
	// and byte count, no data. It is what keeps a finished run addressable
	// after its bytes leave the cache (LRU eviction, oversized stream, or
	// caching disabled): status stays reportable, and the stream endpoint
	// can transparently re-admit the spec — determinism guarantees the
	// re-run reproduces the original bytes.
	done      map[string]doneRecord
	doneOrder []doneOrderEntry
	doneSeq   uint64

	workers sync.WaitGroup
}

// failedRetention bounds the failed-job tombstone table.
const failedRetention = 128

// doneRetention bounds the completed-run index (records are ~100 bytes).
const doneRetention = 4096

// doneRecord is one completed-run index entry. seq ties the record to its
// doneOrder entry, so eviction never removes a record that was refreshed
// after its original order entry was queued.
type doneRecord struct {
	spec  RunSpec
	key   string
	bytes int
	seq   uint64
}

// doneOrderEntry is one FIFO slot of the completed-run index.
type doneOrderEntry struct {
	id  string
	seq uint64
}

// New builds a Server and starts its worker pool. If the configured spill
// store cannot be opened, New logs the error and serves without the durable
// tier rather than not serving at all; use Open when a broken store should
// be fatal (cmd/qoed does — a silently memory-only daemon would defeat the
// restart-persistence contract the operator asked for).
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		c := cfg.withDefaults()
		c.Logger.Warn("disk store disabled", "err", err)
		c.StoreDir = ""
		s, _ = Open(c)
	}
	return s
}

// Open builds a Server (opening the spill store when configured) and starts
// its worker pool.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		cache:     newResultCache(cfg.CacheBytes),
		live:      map[string]*job{},
		failed:    map[string]*job{},
		done:      map[string]doneRecord{},
		queue:     make(chan *job, cfg.QueueDepth),
		shardExec: qoe.NewShardExecutor(2),
		log:       cfg.Logger,
		tr:        cfg.Tracer,
		lat:       telemetry.NewLatencySet(latencyClasses...),
		started:   time.Now(),
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, cfg.Logger)
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	if len(cfg.Peers) > 0 {
		// Peer fetches read finished bytes, they never wait on a
		// simulation, so a fixed 30s timeout bounds a stuck peer.
		httpc := &http.Client{Timeout: 30 * time.Second}
		for _, u := range cfg.Peers {
			s.peers = append(s.peers, qoe.NewClient(u, httpc))
		}
	}
	s.runFn = s.defaultRun
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.met = newMetrics(s)
	s.tiers = []*tier{{source: "cache", class: "mem", hits: s.met.cacheHitsMem, get: s.cache.get, has: s.cache.has}}
	if s.store != nil {
		s.tiers = append(s.tiers, &tier{source: "disk", class: "disk", hits: s.met.cacheHitsDisk, get: s.store.Get, has: s.store.Has})
	}
	s.mux = s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// admission is the outcome of routing one request through the singleflight
// table and the result cache. When j is non-nil the request already HOLDS
// one subscription on it (taken atomically inside admit), and the handler
// must release it with j.unsubscribe() exactly once.
type admission struct {
	j       *job   // non-nil: attached to this live job (one subscription held)
	cached  []byte // non-nil: replay these finished bytes
	tier    *tier  // the finished tier that supplied cached
	key     string // canonical tuple (always set)
	id      string // canonical ID (always set)
	created bool   // this request created (and enqueued) the job
}

// errQueueFull is returned by admit when the job queue cannot take another
// run; the HTTP layer turns it into 429 + Retry-After.
var errQueueFull = errors.New("serve: run queue is full")

// errDraining is returned once Shutdown has begun; the HTTP layer turns it
// into 503.
var errDraining = errors.New("serve: server is draining")

// latencyClasses are the serving tiers the per-class request latency
// histograms distinguish: a full simulation (cold), each finished tier (mem,
// disk, peer), and requests that piggybacked on a live job (dedup).
var latencyClasses = []string{"cold", "mem", "disk", "peer", "dedup"}

// admit routes one canonical spec: dedup onto a live job, hit the result
// cache, or create and enqueue a fresh job — refusing with errQueueFull
// when the queue is saturated. ephemeral marks requests whose run should
// cancel when their last subscriber disconnects (one-shot GET streams); a
// durable request deduplicated onto an ephemeral job promotes it. On
// success with a live job, the request already holds one subscription
// (attach happens atomically with admission, so a concurrent
// last-subscriber disconnect can never cancel a job between the two).
func (s *Server) admit(spec RunSpec, ephemeral bool) (admission, error) {
	return s.admitTraced(spec, ephemeral, "")
}

// traceAdmit records the admission span: one per request, tagged with the
// outcome tier. Pre-interned outcome strings and a pooled span keep this
// inside the cached path's alloc budget.
func (s *Server) traceAdmit(traceID string, parent uint64, start time.Time, outcome string) {
	if s.tr == nil {
		return
	}
	sp := s.tr.StartAt(traceID, "admit", parent, start)
	sp.Attr("outcome", outcome)
	sp.EndAt(time.Now())
}

// admitTraced is admit carrying an optional traceparent header value from
// the shard wire: a sub-job dispatched by a coordinator records its spans
// under the COORDINATOR's trace ID (parented to its dispatch span), which is
// what stitches a distributed study into one trace. An absent or malformed
// header falls back to the run's own deterministic trace ID.
func (s *Server) admitTraced(spec RunSpec, ephemeral bool, traceparent string) (admission, error) {
	key := spec.Key()
	id := idFromKey(key)
	admitStart := time.Now()
	traceID, parentSpan := id, uint64(0)
	if traceparent != "" {
		if tid, p, ok := telemetry.ParseTraceparent(traceparent); ok {
			traceID, parentSpan = tid, p
		}
	}
	// Fast pass under the lock: dedup onto a live job. The finished tiers
	// are walked with the lock RELEASED — file I/O on the admission path must
	// never stall every other request's ~100µs RAM hit.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return admission{}, errDraining
	}
	if j, ok := s.live[id]; ok && j.attach(!ephemeral) {
		s.met.runsDeduped.Add(1)
		s.mu.Unlock()
		s.traceAdmit(traceID, parentSpan, admitStart, "dedup")
		return admission{j: j, key: key, id: id}, nil
	}
	// Either no live job, or attach refused it: the job was abandoned (its
	// last one-shot client disconnected and cancelled it) or already failed,
	// and is still unwinding. Don't glue new clients to a doomed run — fall
	// through to the finished tiers and, on miss, start a fresh job. The
	// doomed job's runJob only retires its own table entry (identity-checked),
	// so overwriting live[id] is safe.
	s.mu.Unlock()
	if data, _, t, ok := s.fetch(id, s.tiers); ok {
		s.met.runsCacheHit.Add(1)
		if t != s.tiers[0] {
			s.tr.Record(traceID, "disk_read", parentSpan, admitStart, time.Now())
		}
		s.traceAdmit(traceID, parentSpan, admitStart, t.class)
		return admission{cached: data, tier: t, key: key, id: id}, nil
	}

	// Slow pass: re-check live and RAM under the lock (a concurrent request
	// may have created or completed this tuple while we probed disk) and
	// create the job atomically with its table entry.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return admission{}, errDraining
	}
	if j, ok := s.live[id]; ok && j.attach(!ephemeral) {
		s.met.runsDeduped.Add(1)
		s.traceAdmit(traceID, parentSpan, admitStart, "dedup")
		return admission{j: j, key: key, id: id}, nil
	}
	if data, _, t, ok := s.fetch(id, s.tiers[:1]); ok {
		s.met.runsCacheHit.Add(1)
		s.traceAdmit(traceID, parentSpan, admitStart, t.class)
		return admission{cached: data, tier: t, key: key, id: id}, nil
	}
	runCtx, cancel := context.WithCancel(s.baseCtx)
	j := newJob(id, key, spec, runCtx, cancel, ephemeral)
	j.traceID, j.traceParent, j.enqueued = traceID, parentSpan, time.Now()
	select {
	case s.queue <- j:
	default:
		cancel()
		s.met.runsRejected.Add(1)
		s.traceAdmit(traceID, parentSpan, admitStart, "rejected")
		return admission{}, errQueueFull
	}
	s.live[id] = j
	// A fresh attempt supersedes any prior FAILURE of this tuple, so a stale
	// tombstone can never shadow its outcome. A recorded success, though, is
	// kept: determinism means the tuple's completed bytes stay reproducible,
	// so if this attempt dies (abandoned one-shot, drain cancellation) the
	// prior success still stands — a disconnect must never demote a
	// done/evicted run to failed. runJob enforces the matching half: a failed
	// attempt of a tuple with a done record plants no tombstone.
	delete(s.failed, id)
	s.met.runsAccepted.Add(1)
	s.traceAdmit(traceID, parentSpan, admitStart, "accepted")
	s.log.Info("run accepted", "id", id, "key", key)
	return admission{j: j, key: key, id: id, created: true}, nil
}

// lookup finds an existing run by ID: the live job, the finished tiers, or a
// failed-run tombstone (in that order — a fresh success must shadow an old
// failure). t names the finished tier that supplied data; it is nil when a
// job is returned instead.
func (s *Server) lookup(id string) (j *job, data []byte, key string, t *tier, ok bool) {
	s.mu.Lock()
	j, ok = s.live[id]
	s.mu.Unlock()
	if ok {
		return j, nil, j.key, nil, true
	}
	if data, key, t, ok := s.fetch(id, s.tiers); ok {
		return nil, data, key, t, true
	}
	s.mu.Lock()
	j, ok = s.failed[id]
	s.mu.Unlock()
	if ok {
		return j, nil, j.key, nil, true
	}
	return nil, nil, "", nil, false
}

// worker consumes jobs until the queue closes at drain.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job. A clean completion goes through complete; a
// failed or cancelled run releases its partial bytes and is tombstoned,
// never cached, so the finished tiers hold nothing but complete,
// summary-terminated streams. When peers are configured, a fill from a warm
// peer pre-empts the simulation entirely: the fetched bytes flow through the
// job's broadcast buffer exactly as simulated bytes would, so concurrent
// waiters can't tell the difference — and runs_started stays untouched,
// because nothing ran.
func (s *Server) runJob(j *job) {
	// The root "run" span opens retroactively at enqueue time, so its
	// duration is the client-visible queue-wait + execution wall; the
	// explicit queue_wait child makes the admission backlog legible on its
	// own. Sub-jobs parent under the coordinator's dispatch span via the
	// propagated trace fields.
	var root *telemetry.Span
	if s.tr != nil {
		root = s.tr.StartAt(j.traceID, "run", j.traceParent, j.enqueued)
		root.Attr("run_id", j.id)
		if j.spec.Shard != nil {
			root.Attr("kind", "shard")
		} else {
			root.Attr("kind", "run")
		}
		s.tr.Record(j.traceID, "queue_wait", root.ID(), j.enqueued, time.Now())
	}
	if s.peerFill(j, root) {
		return
	}
	s.met.runsStarted.Add(1)
	j.start()
	sim := s.tr.Start(j.traceID, "simulate", root.ID())
	// The adaptive engine counts into this server's registry.
	runCtx := adaptive.NewContext(j.runCtx, s.met.adaptive)
	if s.tr != nil {
		// Layers below the handler (the fabric backend inside a session, the
		// adaptive engine) parent their spans under the simulate span.
		runCtx = telemetry.NewContext(runCtx, telemetry.TraceContext{Tracer: s.tr, TraceID: j.traceID, Parent: sim.ID()})
	}
	err := s.runFn(runCtx, j.spec, j)
	sim.EndErr(err)
	if err != nil {
		j.finish(err) // before retire: the tombstone records j.err
		s.met.runsFailed.Add(1)
		root.EndErr(err)
		s.retire(j, err, 0)
		s.log.Error("run failed", "id", j.id, "err", err)
		return
	}
	s.met.runsCompleted.Add(1)
	s.log.Info("run done", "id", j.id, "bytes", s.complete(j, root))
}

// complete finishes a successful run, simulated or peer-filled, in the one
// order that makes a summary line a promise: publish the bytes to the
// finished tiers, retire the job from the live table and record it as done,
// end the root span, and only then release the held-back final write. A
// client holding the summary therefore finds the run in the tiers, and its
// repeat request is a tier hit — never a dedup onto a job about to vanish,
// never a second simulation. It returns the stream's length.
func (s *Server) complete(j *job, root *telemetry.Span) int {
	buf := j.bytes()
	pub := s.tr.Start(j.traceID, "publish", root.ID())
	s.publish(j.id, j.key, buf)
	pub.End()
	s.retire(j, nil, len(buf))
	root.End()
	j.finish(nil)
	return len(buf)
}

// retire removes a finished job from the singleflight table and records its
// outcome, then releases its run context.
//
// Identity check: an abandoned-then-retried tuple may have a fresh job
// under the same ID by now. Only the CURRENT attempt retires its table
// entry and records an outcome — a superseded job finishing late must
// not plant a stale tombstone (or done record) that would shadow the
// newer attempt's result. Its bytes are still fine to cache:
// determinism makes them valid for the tuple regardless of attempt.
func (s *Server) retire(j *job, err error, n int) {
	s.mu.Lock()
	if s.live[j.id] == j {
		delete(s.live, j.id)
		if err == nil {
			s.rememberDoneLocked(j, n)
		} else if _, succeeded := s.done[j.id]; !succeeded {
			// Tombstone only tuples that have never completed: a failure
			// after a recorded success (an abandoned one-shot re-run, a drain
			// cancellation) leaves the success authoritative — status keeps
			// reporting done/evicted, and the stream endpoint re-runs the
			// tuple instead of serving the failure's partial bytes.
			s.rememberFailedLocked(j)
		}
	}
	s.mu.Unlock()
	j.cancel() // release the run context's resources
}

// peerFill tries to satisfy j from a peer's finished tiers before paying for
// a simulation. Probes go peer by peer with the peer-fill contract (finished
// bytes or 404 — a peer never simulates for us, so fills cannot cascade
// through the fleet), and the fetched bytes are validated end to end by the
// client before this returns them. On success the bytes flow through the
// job's broadcast buffer and complete like a simulated run's; every
// concurrent waiter deduplicated onto j is served by this one probe. Shard
// sub-jobs are exempt: their streams are per-shard aggregate states, not run
// events, and the fabric's worker affinity already routes them to warm
// workers.
func (s *Server) peerFill(j *job, root *telemetry.Span) bool {
	if len(s.peers) == 0 || j.spec.Shard != nil {
		return false
	}
	for i, p := range s.peers {
		if j.runCtx.Err() != nil {
			return false // abandoned or draining; let runJob unwind it
		}
		fill := s.tr.Start(j.traceID, "peer_fill", root.ID())
		fill.Attr("peer", s.cfg.Peers[i])
		data, err := p.FetchWarmRun(j.runCtx, j.id)
		if err != nil {
			fill.EndErr(err)
			if !errors.Is(err, qoe.ErrRunNotWarm) && j.runCtx.Err() == nil {
				s.log.Warn("peer fill failed", "id", j.id, "peer", s.cfg.Peers[i], "err", err)
			}
			continue
		}
		j.start()
		_, _ = j.Write(data)
		j.markPeerFilled()
		fill.End()
		s.met.cacheHitsPeer.Add(1)
		s.log.Info("run filled from peer", "id", j.id, "peer", s.cfg.Peers[i], "bytes", s.complete(j, root))
		return true
	}
	return false
}

// rememberFailedLocked tombstones a failed job (caller holds s.mu) and
// evicts the oldest tombstones past the retention bound. The tombstone is a
// memory-bounded copy (error + at most tombstoneBufCap of the partial
// stream), so the table's worst case is a few MiB — the failed run's full
// buffer is not pinned the way the byte-bounded success cache guards
// against.
func (s *Server) rememberFailedLocked(j *job) {
	t := j.tombstone()
	s.failed[t.id] = t
	s.failedOrder = append(s.failedOrder, t)
	for len(s.failedOrder) > failedRetention {
		old := s.failedOrder[0]
		s.failedOrder = s.failedOrder[1:]
		// Delete only if the tombstone for that ID is still this job — a
		// re-failed tuple's newer tombstone must survive the old one's
		// eviction.
		if s.failed[old.id] == old {
			delete(s.failed, old.id)
		}
	}
}

// rememberDoneLocked indexes a completed run (caller holds s.mu), evicting
// the oldest records past the retention bound. A tuple that re-completes
// (cache disabled, or post-eviction re-streams) refreshes its existing
// record in place — no duplicate order entries, so one hot tuple can never
// flood the FIFO and evict other tuples' records — and the seq tag makes
// eviction exact: only a record still owned by the popped order entry is
// deleted.
func (s *Server) rememberDoneLocked(j *job, bytes int) {
	s.doneSeq++
	if old, ok := s.done[j.id]; ok {
		// Refresh in place; the existing order entry (tagged old.seq) keeps
		// representing this ID, so keep that seq.
		s.done[j.id] = doneRecord{spec: j.spec, key: j.key, bytes: bytes, seq: old.seq}
		return
	}
	s.done[j.id] = doneRecord{spec: j.spec, key: j.key, bytes: bytes, seq: s.doneSeq}
	s.doneOrder = append(s.doneOrder, doneOrderEntry{id: j.id, seq: s.doneSeq})
	for len(s.doneOrder) > doneRetention {
		old := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		if rec, ok := s.done[old.id]; ok && rec.seq == old.seq {
			delete(s.done, old.id)
		}
	}
}

// completedRecord looks up the completed-run index.
func (s *Server) completedRecord(id string) (doneRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.done[id]
	return rec, ok
}

// Shutdown drains the server: admission stops immediately (new runs get
// 503), queued and in-flight runs are given until ctx expires to finish,
// and past the deadline every remaining run is cancelled through its
// context and awaited. The result cache is left intact and reusable —
// cancelled runs never enter it. Shutdown is idempotent; it returns
// ctx.Err() if the deadline forced cancellation, nil on a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		s.baseCancel() // abort in-flight runs; they unwind via ctx plumbing
		<-done
		return ctx.Err()
	}
}

// Close shuts down without a grace period: in-flight runs are cancelled at
// once. Intended for tests and fatal exits.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Shutdown(ctx)
}
