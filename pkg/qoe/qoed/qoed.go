// Package qoed is the public face of the study-serving daemon engine: the
// HTTP service that exposes the pkg/qoe experiment catalog over a versioned
// API and streams schema_version 1 NDJSON run output to many concurrent
// clients, with singleflight dedup, a content-addressed result cache, and
// bounded-queue admission control (429 + Retry-After under saturation).
//
// The implementation lives in internal/serve; this package re-exports the
// construction surface so commands and examples — which, per the repository's
// surface guard, consume the system exclusively through pkg/qoe/... — can
// embed the daemon:
//
//	srv := qoed.New(qoed.Config{Workers: 4, QueueDepth: 32})
//	defer srv.Close()
//	http.ListenAndServe(":8080", srv) // srv is an http.Handler
//
// Endpoints: GET /healthz, GET /metrics, GET /v1/catalog, POST /v1/runs,
// GET /v1/runs/{id}, GET /v1/runs/{id}/stream, and the one-shot
// GET /v1/run?experiments=...&scale=...&seed=... whose response is
// byte-compatible with `qoebench -stream -parallel 1` for the same tuple.
// See EXPERIMENTS.md ("Serving studies with qoed") for the API walkthrough
// and backpressure semantics.
// For distributed studies the daemon plays one of two extra roles (see
// EXPERIMENTS.md "Distributed studies"): a WORKER serves shard-range
// sub-jobs at GET /v1/shard, and a COORDINATOR — built with NewFabric and a
// Config whose Population/Fabric fields carry the coordinator — splits each
// canonical pop-* study across its worker pool and reduces the returned
// aggregates into the byte-identical single-node stream.
//
// The result tier is hierarchical — RAM → disk → peers → simulate.
// Config.StoreDir mounts a content-addressed disk spill store under the LRU
// (atomic checksummed writes, corrupt entries quarantined and re-simulated,
// survives restarts); Config.Peers lists sibling daemons whose finished
// tiers are probed before paying for a simulation; and Server.Prewarm walks
// a grid of hot tuples through normal admission at boot. See EXPERIMENTS.md
// "Durable cache & fleet warming".
package qoed

import (
	"io"
	"log/slog"

	"repro/internal/fabric"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// Config sizes a Server: worker pool, admission queue, result-cache byte
// budget, Retry-After hint, and the structured logger. Zero values take the
// serve package's defaults.
type Config = serve.Config

// Server is the serving engine — an http.Handler owning the job table,
// worker pool, and result cache. Always Shutdown (or Close) it so the
// workers stop.
type Server = serve.Server

// RunSpec is the canonical identity of one deterministic run; build it with
// Canonicalize when constructing requests programmatically.
type RunSpec = serve.RunSpec

// New builds a Server and starts its worker pool. If Config.StoreDir is set
// but the spill store cannot be opened, New degrades to serving without the
// durable tier; use Open when that must be fatal instead.
func New(cfg Config) *Server { return serve.New(cfg) }

// Open builds a Server like New but fails when the configured disk spill
// store cannot be opened, instead of silently serving memory-only.
func Open(cfg Config) (*Server, error) { return serve.Open(cfg) }

// PrewarmGrid declares the hot tuple set a daemon computes at boot; see
// LoadPrewarmGrid for the JSON file format and DefaultPrewarmGrid for the
// catalog-derived default.
type PrewarmGrid = serve.PrewarmGrid

// PrewarmTuple is one experiments × scales × seeds cross-product group of a
// prewarm grid.
type PrewarmTuple = serve.PrewarmTuple

// PrewarmStats reports one prewarm walk: tuples computed, tuples already
// warm in some tier, tuples failed.
type PrewarmStats = serve.PrewarmStats

// LoadPrewarmGrid reads a prewarm grid from a JSON file.
func LoadPrewarmGrid(path string) (PrewarmGrid, error) { return serve.LoadPrewarmGrid(path) }

// DefaultPrewarmGrid derives the hot set from the catalog: every experiment
// at quick scale, seed 1.
func DefaultPrewarmGrid() PrewarmGrid { return serve.DefaultPrewarmGrid() }

// Canonicalize resolves a raw selection (experiments/scenarios synonyms,
// scale name, seed) into the canonical RunSpec the server dedups and caches
// on — useful for computing the ID/Key a request will land under.
func Canonicalize(experiments, scenarios []string, scale string, seed int64) (RunSpec, error) {
	return serve.Canonicalize(experiments, scenarios, scale, seed)
}

// CanonicalizeShard builds the canonical RunSpec of one shard-range
// sub-job of a population study (the tuple behind GET /v1/shard). cell
// addresses one grid cell of a multi-cell (adaptive) study; pass 0 for the
// canonical population runs.
func CanonicalizeShard(study, scale string, seed int64, lo, hi, cell int) (RunSpec, error) {
	return serve.CanonicalizeShard(study, scale, seed, lo, hi, cell)
}

// FabricConfig configures a distributed-study coordinator: the worker pool
// URLs, the (scale, master seed) tuple it serves, and the dispatch/retry
// policy.
type FabricConfig = fabric.Config

// Fabric is the coordinator: it splits canonical pop-* studies into
// shard-range sub-jobs, dispatches them across the worker pool with bounded
// in-flight jobs and retry-with-backoff, and reduces the results in shard
// order — byte-identical to a single-node run. It implements
// qoe.PopulationBackend; wire it into a daemon via Config.Population and
// Config.Fabric, or into a local session via qoe.WithPopulationBackend.
type Fabric = fabric.Coordinator

// FabricPlan is the deterministic sub-job split of one study.
type FabricPlan = fabric.Plan

// FabricWorkerStatus is one pool member's health as reported by
// GET /v1/fabric/workers.
type FabricWorkerStatus = fabric.WorkerStatus

// NewFabric builds a coordinator over a worker pool.
func NewFabric(cfg FabricConfig) (*Fabric, error) { return fabric.New(cfg) }

// Tracer records run-lifecycle spans into a bounded in-memory ring of
// traces, inspectable at GET /debug/trace/{id}. Trace IDs are deterministic
// (a run's trace is keyed by its canonical run ID), and a distributed study
// stitches its workers' spans into the coordinator's single trace. Wire one
// into Config.Tracer; a nil tracer disables tracing at the cost of one
// branch per site.
type Tracer = telemetry.Tracer

// TracerConfig sizes a Tracer: ring bounds and the optional NDJSON span-log
// writer (the -trace-log file).
type TracerConfig = telemetry.Config

// NewTracer builds a Tracer.
func NewTracer(cfg TracerConfig) *Tracer { return telemetry.New(cfg) }

// NewLogger builds the daemon's structured logger writing to w. level is
// one of debug, info, warn, error (default info); format is text or json
// (default text). Wire it into Config.Logger and FabricConfig.Logger.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	return telemetry.NewLogger(w, level, format)
}
