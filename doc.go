// Package repro reproduces "Perceiving QUIC: Do Users Notice or Even Care?"
// (Rüth, Wolsing, Wehrle, Hohlfeld — CoNEXT 2019) as a self-contained Go
// library: a deterministic Mahimahi-style network emulator, segment-level
// TCP(+TLS) and gQUIC transport models with Cubic/BBRv1 and fq pacing, an
// HTTP/2-vs-HTTP/3 application layer, a Chromium-like page loader over a
// 36-site synthetic corpus, visual Web metrics (FVC/SI/VC85/LVC/PLT), and a
// psychometric simulation of the paper's two user studies with its full
// conformance-filtering pipeline.
//
// Entry points:
//
//	pkg/qoe       — the public, versioned SDK: everything below reaches the
//	                system through it
//	cmd/qoed      — the study-serving daemon: the full catalog over HTTP
//	                with singleflight dedup, a result cache, and NDJSON
//	                streaming (see EXPERIMENTS.md "Serving studies")
//	cmd/qoebench  — regenerate every table and figure of the evaluation
//	                (add -stream for the schema_version 1 NDJSON row stream,
//	                -timeout to bound the run)
//	cmd/pageload  — load one site under one configuration
//	cmd/netsweep  — locate the noticeability crossover along one dimension
//	examples/     — runnable SDK tours (examples/quickstart is the
//	                one-minute Session.Run(ctx, sink) introduction;
//	                examples/remotestudy serves and consumes studies over
//	                HTTP in one process)
//
// The SDK's pivot is qoe.Session: functional options (WithScenarios,
// WithScale, WithSeed, WithParallelism) select and configure a run, and
// Session.Run(ctx, sink) executes it with full context plumbing —
// cancellation stops the testbed prewarm between conditions, skips
// unstarted experiments, and winds million-vote population shard loops down
// within one participant's worth of work. Results stream to a qoe.Sink as
// typed events (RowEvent / ProgressEvent / SummaryEvent, wire-versioned via
// qoe.SchemaVersion); adapter sinks reproduce the classic text/CSV/JSON
// documents byte-for-byte, which is how the goldens and qoebench's output
// survive the redesign unchanged. A surface guard test keeps cmd/ and
// examples/ from importing internal packages directly.
//
// Experiments are first-class: each table, figure, ablation, and extension
// registers itself in internal/experiments as an Experiment (declaring the
// recording conditions it needs, running under a context against a
// caller-supplied shared core.Testbed, and returning a Result that renders
// as text, CSV, or JSON). internal/runner executes any set of registered
// experiments off one shared testbed: it merges their declared condition
// grids into a single prewarm plan, records each (site × network ×
// protocol) condition exactly once (the testbed's singleflight cache
// deduplicates concurrent misses), and runs the experiments on a bounded
// worker pool with deterministic per-experiment seeds — so `qoebench all`
// does the transport/browser simulation work once, not once per experiment.
// RunContext streams completed results to hooks in input order, which is
// what Session builds its ordered event stream on.
//
// The event core is allocation-free in steady state: simulator timers,
// link frames, wire packets, and in-flight records all come from free lists
// and are recycled, hot callbacks are scheduled as a function plus pre-bound
// argument rather than a closure, and study loops reuse their participant
// models and scratch — so a full `qoebench all` batch is GC-quiet and ~3x
// faster than the closure-per-event design it replaced, while every golden
// output stays byte-identical. The end-to-end benchmark is perfbench
// (workloads and bounds in BENCHMARK.json); the root micro-benchmarks and
// the allocation gates cover single layers. qoebench's -cpuprofile,
// -memprofile, and -bench-trace flags expose the run to the standard Go
// profiling tools.
//
// The serving layer (internal/serve, fronted publicly by pkg/qoe/qoed and
// cmd/qoed) turns the SDK into the hosted study service the paper actually
// operated: because a run is a pure function of its canonical tuple (sorted
// experiments, scale, seed, schema version), N concurrent identical requests
// share ONE simulation through a singleflight job table and broadcast
// buffer, finished runs replay byte-identically from a content-addressed LRU
// cache with zero simulation, and a bounded worker pool + queue sheds excess
// load with 429 + Retry-After. A sink error aborts Session.Run promptly with
// that error — the contract direct stream consumers rely on; the daemon's
// own sink is its in-memory broadcast buffer, so it handles client
// disconnects one level up, via subscription bookkeeping that cancels
// abandoned one-shot runs through the same context plumbing Ctrl-C and
// qoebench's -timeout use. qoe.Client consumes a served daemon with the same
// Sink interfaces a local Session feeds, via qoe.DecodeStream.
//
// Beyond the paper's grid, internal/simnet carries a named scenario library
// (fast-fiber, congested-wifi, lossy-satellite, throttled-3g) and
// internal/population a sharded population-scale study engine: the pop-*
// experiments stream over a million synthetic votes per run through online
// aggregators (internal/stats: Welford, streaming histograms, Wilson
// binomial counters) with memory bounded by the stimulus grid, answering
// the paper's "would this hold at scale?" question. Golden-file tests under
// testdata/golden pin every experiment's quick-scale output byte-for-byte.
//
// See DESIGN.md for the substitution ledger (what the paper's hardware and
// human apparatus was replaced with, and why that preserves behaviour) and
// EXPERIMENTS.md for how to regenerate the paper's artifacts via qoebench.
package repro
