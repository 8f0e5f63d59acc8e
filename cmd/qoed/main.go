// Command qoed is the study-serving daemon: a long-running HTTP service
// exposing the full experiment catalog of the QUIC-QoE reproduction, built
// for many concurrent participants the way the paper's hosted study was.
//
// Usage:
//
//	qoed [-addr :8080] [-workers N] [-queue N] [-cache-mb MB]
//	     [-retry-after DUR] [-drain DUR]
//	     [-store DIR] [-peers URL,URL,...] [-prewarm PATH|default]
//	     [-worker | -coordinator URL,URL,...]
//	     [-log-level LVL] [-log-format text|json] [-trace-log PATH]
//	     [-debug-addr ADDR]
//
// Observability: every run records a lifecycle trace (admission → queue wait
// → simulate → publish, plus disk/peer/fabric spans) under its deterministic
// run ID, inspectable at GET /debug/trace/{id}; `-trace-log spans.ndjson`
// tees finished spans to a file. `/metrics?format=prom` renders the counter
// map as Prometheus text exposition with per-class latency summaries.
// `-log-level`/`-log-format` shape the structured event log on stderr, and
// `-debug-addr 127.0.0.1:6060` serves net/http/pprof off the study port.
//
// Durable result tier: `-store DIR` mounts a content-addressed disk spill
// store under the RAM cache — finished streams are written through with
// atomic checksummed framing, evictions demote to disk, disk hits promote
// back, and a restart serves its whole history with zero re-simulation.
// `-peers url1,url2,...` fills misses from sibling daemons' finished tiers
// before simulating (a coordinator with no explicit peers uses its worker
// pool). `-prewarm grid.json` (or `-prewarm default` for the catalog's hot
// set) computes the grid's tuples through normal admission at boot, one at
// a time so live traffic is never starved.
//
// Distributed studies: `-worker` announces the daemon as a shard worker (it
// serves shard-range population sub-jobs at GET /v1/shard — every daemon
// does, the flag marks the role), and `-coordinator url1,url2,...` makes it
// a fabric coordinator over that worker pool: each canonical pop-ab /
// pop-rating study a served session runs is split into shard-range
// sub-jobs, dispatched across the pool with retry-with-backoff, and reduced
// in shard order back into the byte-identical single-node stream. The
// coordinator exposes its pool at GET /v1/fabric/workers and its dispatch
// counters under "fabric" in /metrics.
//
// Because every run is a pure function of its canonical tuple (sorted
// experiments, scale, seed, schema version), the daemon never simulates the
// same study twice at once: concurrent identical requests share one
// simulation via singleflight broadcast, finished runs replay from a
// content-addressed LRU cache with zero simulation, and a bounded worker
// pool + queue sheds excess load with 429 + Retry-After instead of melting.
//
// Endpoints:
//
//	GET  /healthz                 liveness (503 while draining)
//	GET  /metrics                 per-server counters and gauges as JSON
//	                              (?format=prom: Prometheus text)
//	GET  /v1/catalog              experiments, networks, scenarios, scales
//	POST /v1/runs                 start a durable run (JSON body)
//	GET  /v1/runs/{id}            run status
//	GET  /v1/runs/{id}/stream     NDJSON event stream of a run
//	GET  /v1/run?experiments=...  one-shot: admit + stream in one request,
//	                              byte-compatible with `qoebench -stream`
//	GET  /v1/shard?study=...      worker: stream one shard range's aggregates
//	GET  /v1/fabric/workers       coordinator: worker pool health
//	GET  /debug/trace/{id}        stitched lifecycle trace of one run
//
// SIGINT/SIGTERM drains gracefully: admission stops, in-flight runs get
// -drain to finish, then are cancelled cleanly through the same context
// plumbing qoebench's Ctrl-C uses.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only on -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/pkg/qoe/qoed"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	workers := flag.Int("workers", 0, "max concurrent simulations (0 = one per core)")
	queue := flag.Int("queue", 16, "max queued runs before shedding load with 429")
	cacheMB := flag.Int64("cache-mb", 64, "result cache budget in MiB (<= 0 disables caching)")
	retryAfter := flag.Duration("retry-after", 2*time.Second, "Retry-After hint on 429 responses")
	drain := flag.Duration("drain", 30*time.Second, "grace period for in-flight runs at shutdown")
	workerRole := flag.Bool("worker", false, "announce this daemon as a distributed-study shard worker")
	coordinator := flag.String("coordinator", "", "comma-separated worker URLs; distribute pop-* studies across them")
	storeDir := flag.String("store", "", "disk spill store directory (durable result tier; empty disables)")
	peers := flag.String("peers", "", "comma-separated peer daemon URLs to fill cache misses from (coordinator default: its worker pool)")
	prewarm := flag.String("prewarm", "", "prewarm grid JSON file, or 'default' for the catalog hot set, computed at boot")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	traceLog := flag.String("trace-log", "", "append finished spans as NDJSON to this file (tracing itself is always on)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (empty disables)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: qoed [-addr :8080] [-workers N] [-queue N] [-cache-mb MB] [-retry-after DUR] [-drain DUR] [-store DIR] [-peers URL,...] [-prewarm PATH|default] [-worker | -coordinator URL,URL,...] [-log-level LVL] [-log-format FMT] [-trace-log PATH] [-debug-addr ADDR]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 || (*workerRole && *coordinator != "") {
		flag.Usage()
		os.Exit(2)
	}

	// Two log planes: the std logger keeps the daemon's own lifecycle lines
	// (the "qoed: listening on ..." readiness contract scripts parse), while
	// the slog logger carries the serving layers' structured events at the
	// operator-chosen level and format.
	logger := log.New(os.Stderr, "", log.LstdFlags)
	slogger, err := qoed.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		logger.Fatalf("qoed: %v", err)
	}
	tracerCfg := qoed.TracerConfig{}
	if *traceLog != "" {
		f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Fatalf("qoed: trace log: %v", err)
		}
		defer f.Close()
		tracerCfg.LogW = f
	}
	tracer := qoed.NewTracer(tracerCfg)
	cacheBytes := *cacheMB << 20
	if *cacheMB <= 0 {
		// <= 0 disables caching outright; serve.Config treats exactly zero
		// as "use the default", which is not what a zero budget asks for.
		cacheBytes = -1
	}
	cfg := qoed.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		CacheBytes: cacheBytes,
		RetryAfter: *retryAfter,
		Logger:     slogger,
		Tracer:     tracer,
		StoreDir:   *storeDir,
		Peers:      splitURLs(*peers),
	}
	if *coordinator != "" {
		pool := splitURLs(*coordinator)
		fab, err := qoed.NewFabric(qoed.FabricConfig{Workers: pool, Logger: slogger})
		if err != nil {
			logger.Fatalf("qoed: %v", err)
		}
		if err := fab.CheckWorkers(context.Background()); err != nil {
			logger.Fatalf("qoed: %v", err)
		}
		cfg.Fabric = fab
		if len(cfg.Peers) == 0 {
			// A coordinator's workers hold the fleet's warm bytes; they are
			// the natural peer set when none is named explicitly.
			cfg.Peers = pool
		}
		logger.Printf("qoed: coordinating %d workers", len(pool))
	}
	if *workerRole {
		logger.Printf("qoed: serving as shard worker")
	}
	if len(cfg.Peers) > 0 {
		logger.Printf("qoed: filling cache misses from %d peers", len(cfg.Peers))
	}
	// A requested-but-broken store is fatal: the operator asked for restart
	// persistence, and a silently memory-only daemon would betray that.
	srv, err := qoed.Open(cfg)
	if err != nil {
		logger.Fatalf("qoed: %v", err)
	}
	if *storeDir != "" {
		logger.Printf("qoed: durable result store at %s", *storeDir)
	}

	// Resolve the prewarm grid before binding the port: a bad grid file is a
	// boot error, not something to discover after announcing readiness.
	var prewarmSpecs []qoed.RunSpec
	if *prewarm != "" {
		grid := qoed.DefaultPrewarmGrid()
		if *prewarm != "default" {
			var gerr error
			if grid, gerr = qoed.LoadPrewarmGrid(*prewarm); gerr != nil {
				logger.Fatalf("qoed: %v", gerr)
			}
		}
		var gerr error
		if prewarmSpecs, gerr = grid.Specs(); gerr != nil {
			logger.Fatalf("qoed: %v", gerr)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("qoed: %v", err)
	}
	// This exact line is the daemon's readiness contract: scripts (and the
	// CI smoke job) parse the bound address from it, which is what makes
	// `-addr 127.0.0.1:0` usable for hermetic harnesses.
	logger.Printf("qoed: listening on %s", ln.Addr())

	if *debugAddr != "" {
		// pprof registers on DefaultServeMux at import; serving the nil mux
		// on a separate opt-in listener keeps the profiling surface off the
		// study-serving port entirely.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			logger.Fatalf("qoed: debug listener: %v", err)
		}
		logger.Printf("qoed: pprof on http://%s/debug/pprof/", dln.Addr())
		go func() { _ = http.Serve(dln, nil) }()
	}

	httpSrv := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if len(prewarmSpecs) > 0 {
		// In the background, one tuple at a time: prewarm fills boot idle
		// capacity without ever starving live traffic, and a shutdown signal
		// stops the walk mid-grid.
		logger.Printf("qoed: prewarming %d tuples", len(prewarmSpecs))
		go func() {
			stats := srv.Prewarm(ctx, prewarmSpecs)
			logger.Printf("qoed: prewarm done: %d computed, %d already warm, %d failed",
				stats.Warmed, stats.AlreadyWarm, stats.Failed)
		}()
	}
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		logger.Fatalf("qoed: serve: %v", err)
	}
	stop() // a second signal kills immediately instead of waiting for drain

	logger.Printf("qoed: draining (up to %v for in-flight runs)", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Printf("qoed: drain deadline hit, in-flight runs cancelled: %v", err)
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("qoed: http shutdown: %v", err)
	}
	logger.Printf("qoed: stopped")
}

// splitURLs parses a comma-separated URL list, dropping empty elements.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}
