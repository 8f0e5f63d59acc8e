package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/population"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/video"
	"repro/internal/webpage"
	"repro/pkg/qoe"
)

// tracedRun is a -trace 1 run: the same requests issued first against an
// untraced stack and then against a traced one, the spans the traced
// servers recorded, and the per-layer metrics and layer table built from
// them.
type tracedRun struct {
	plain, traced *phase
	stack         stack  // the traced stack, open while the workload probes
	spans         []span // spans recorded during the traced phase
	res           *result
	table         *layerTable
}

// traced is a -trace 1 run. Both phases issue the workload's fixed traced
// request count, so they replay identical requests and every count the run
// reports repeats exactly.
func traced(ctx context.Context, w workload, env *env, o options) (result, error) {
	n := w.tracedRequests()
	plainStack, err := w.setUp(ctx, env, false)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	plain := runPhase(ctx, plainStack, w.conns(), 0, n)
	verifyErr := plainStack.verify(ctx, plain)
	plainStack.close()
	plain.report(os.Stderr, o.workload+" (tracing off)")

	st, err := w.setUp(ctx, env, true)
	if err != nil {
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	defer st.close()
	before, err := st.spans(ctx)
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	tr := runPhase(ctx, st, w.conns(), 0, n)
	if err := st.verify(ctx, tr); err != nil && verifyErr == nil {
		verifyErr = err
	}
	tr.report(os.Stderr, o.workload+" (tracing on)")
	after, err := st.spans(ctx)
	if err != nil {
		return result{}, err
	}
	if plain.completed() == 0 || tr.completed() == 0 {
		return result{}, fmt.Errorf("no request completed: %v %v", plain.firstErr, tr.firstErr)
	}

	res := result{
		Correct:   plain.incorrect == 0 && tr.incorrect == 0,
		Attempted: plain.attempted + tr.attempted,
		Failed:    plain.failed + tr.failed,
	}
	if verifyErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: tier check failed: %v\n", o.workload, verifyErr)
		res.Correct = false
	}
	tp := &tracedRun{plain: plain, traced: tr, stack: st, spans: newSpans(before, after), res: &res,
		table: &layerTable{title: o.workload}}

	// Client, runtime and serve metrics common to every workload.
	all := plain.latencies("")
	res.set("qoe.client_p50_ms", "ms", w.latencyP50(plain))
	res.set("qoe.client_p90_ms", "ms", stats.Quantile(all, 0.9))
	res.set("qoe.client_p99_ms", "ms", stats.Quantile(all, 0.99))
	res.set("qoe.client_samples", "count", float64(len(all)))
	res.set("trace.overhead_ms", "ms", w.latencyP50(tr)-w.latencyP50(plain))
	res.set("runtime.allocs_per_request", "count", plain.perRequest(float64(plain.mallocs)))
	res.set("runtime.alloc_mb_per_request", "MB", plain.perRequest(float64(plain.allocated)/(1<<20)))
	res.set("runtime.gc_per_request", "count", plain.perRequest(float64(plain.gcs)))
	perReq := func(names ...string) float64 { return tr.perRequest(tp.spanMS("", names...)) }
	res.set("serve.admit_ms", "ms", perReq("admit"))
	res.set("serve.queue_wait_ms", "ms", perReq("queue_wait"))
	res.set("serve.produce_ms", "ms", perReq("simulate", "disk_read", "peer_fill"))
	res.set("serve.publish_ms", "ms", perReq("publish"))

	if err := w.probe(ctx, env, tp); err != nil {
		return result{}, fmt.Errorf("layer probes: %w", err)
	}
	tp.table.print(os.Stdout)
	return res, nil
}

// newSpans returns the spans of after that before does not hold.
func newSpans(before, after []span) []span {
	seen := make(map[string]bool, len(before))
	key := func(s span) string { return fmt.Sprintf("%s/%d", s.Server, s.ID) }
	for _, s := range before {
		seen[key(s)] = true
	}
	var out []span
	for _, s := range after {
		if !seen[key(s)] {
			out = append(out, s)
		}
	}
	return out
}

// spanMS sums the durations of the traced phase's spans with one of names,
// on one server or ("") all.
func (tp *tracedRun) spanMS(server string, names ...string) float64 {
	var ns int64
	for _, s := range tp.spans {
		if server != "" && s.Server != server {
			continue
		}
		for _, n := range names {
			if s.Name == n {
				ns += s.DurNS
			}
		}
	}
	return float64(ns) / 1e6
}

// ---- the layer probes ----

// plan is the (site × network × protocol) condition grid a tuple records.
type plan struct {
	sites []*webpage.Site
	nets  []simnet.NetworkConfig
	prots []string
}

type condition struct {
	site *webpage.Site
	net  simnet.NetworkConfig
	prot string
}

// planOf is the quick-scale recording plan of one experiment, as the batch
// runner merges it.
func planOf(experiment string) plan {
	exps, err := experiments.Select(experiment)
	if err != nil {
		panic(err) // the benchmark's experiment names are constants
	}
	nets, prots := runner.MergePlan(exps)
	return plan{sites: core.QuickScale().Sites, nets: nets, prots: prots}
}

func (p plan) conditions() []condition {
	var out []condition
	for _, s := range p.sites {
		for _, n := range p.nets {
			for _, pr := range p.prots {
				out = append(out, condition{s, n, pr})
			}
		}
	}
	return out
}

// probe is what the layer probes measured for one pop-ab tuple: each value
// the cost of that layer for one cold pop-ab request of the tuple.
type probe struct {
	session qoe.Summary // in-process Session.Run, as qoed runs it
	stream  []byte      // its NDJSON bytes
	busy    time.Duration
	wall    time.Duration // testbed prewarm, parallel
	loads   int
	loadDur time.Duration
	// Transport counters summed over the plan's loads.
	retransmissions, rtos uint64
	conns                 int
	typical               time.Duration
	cells                 time.Duration
	popRun                time.Duration
	pop                   population.ABResult
	rng                   time.Duration // RunABRange, mean per request range
	exec                  time.Duration // ShardExecutor.Run, mean per request range
}

// probeLayers times calls into each layer's public functions for the
// pop-ab quick tuple at seed: the runner (Session.Run), core (testbed
// prewarm, wall and CPU-busy), browser (every load of the plan, in
// sequence), video (typical-recording selection), experiments (the
// stimulus cells), population (the full run and the 8-shard ranges) and
// the shard executor. exec, when set, is an executor whose testbed for the
// tuple is already recorded.
func probeLayers(ctx context.Context, seed int64, exec *qoe.ShardExecutor) (*probe, error) {
	p := &probe{}
	sess, err := qoe.NewSession(qoe.WithScenarios(coldExperiment), qoe.WithScale(qoe.ScaleQuick),
		qoe.WithSeed(seed), qoe.WithParallelism(1))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if p.session, err = sess.Run(ctx, qoe.StreamSink(&buf)); err != nil {
		return nil, err
	}
	p.stream = buf.Bytes()

	pl := planOf(coldExperiment)
	tb := core.NewTestbed(core.QuickScale(), seed)
	cpu0, t0 := processCPU(), time.Now()
	if err := tb.Prewarm(ctx, pl.nets, pl.prots); err != nil {
		return nil, err
	}
	p.wall, p.busy = time.Since(t0), processCPU()-cpu0

	// The plan's page loads one after another, with the seeds the testbed
	// derives; each must reproduce the testbed's recording.
	for _, c := range pl.conditions() {
		recs := tb.Recordings(c.site, c.net, c.prot)
		key := c.site.Name + "|" + c.net.Name + "|" + c.prot
		proto := core.MustProtocol(c.prot, c.net)
		for r := 0; r < tb.Scale.Reps; r++ {
			cfg := browser.Config{Network: c.net, Proto: proto, Seed: core.DeriveSeed(seed, key) + int64(r)*1_000_003}
			t := time.Now()
			res := browser.Load(c.site, cfg)
			p.loadDur += time.Since(t)
			if res.Report != recs[r].Report {
				return nil, fmt.Errorf("%w: browser.Load of %s rep %d differs from the testbed's recording", errWrongOutput, key, r)
			}
			p.loads++
			p.retransmissions += res.Retransmissions
			p.rtos += res.RTOs
			p.conns += res.Conns
		}
	}

	const typicalRepeats = 20
	t0 = time.Now()
	for i := 0; i < typicalRepeats; i++ {
		for _, c := range pl.conditions() {
			if _, err := video.SelectTypical(tb.Recordings(c.site, c.net, c.prot)); err != nil {
				return nil, err
			}
		}
	}
	p.typical = time.Since(t0) / typicalRepeats

	t0 = time.Now()
	cells, err := experiments.PopABCells(tb)
	if err != nil {
		return nil, err
	}
	p.cells = time.Since(t0)
	expSeed := core.DeriveSeed(seed, coldExperiment)
	t0 = time.Now()
	if p.pop, err = population.RunAB(ctx, cells, experiments.PopABConfig(expSeed)); err != nil {
		return nil, err
	}
	p.popRun = time.Since(t0)

	total, err := qoe.StudyShards(shardStudy)
	if err != nil {
		return nil, err
	}
	if exec == nil {
		// Record the executor's testbed untimed, as shard-fill's set-up does.
		exec = qoe.NewShardExecutor(1)
		req := qoe.ShardRequest{Study: shardStudy, Scale: qoe.ScaleQuick, Seed: seed, Range: qoe.ShardRange{Lo: 0, Hi: shardWidth}}
		if err := exec.Run(ctx, req, io.Discard); err != nil {
			return nil, err
		}
	}
	ranges := 0
	for lo := 0; lo < total; lo += shardWidth {
		r := population.ShardRange{Lo: lo, Hi: min(lo+shardWidth, total)}
		t0 = time.Now()
		if _, err := population.RunABRange(ctx, cells, experiments.PopABConfig(expSeed), r); err != nil {
			return nil, err
		}
		p.rng += time.Since(t0)
		req := qoe.ShardRequest{Study: shardStudy, Scale: qoe.ScaleQuick, Seed: seed, Range: qoe.ShardRange{Lo: r.Lo, Hi: r.Hi}}
		t0 = time.Now()
		if err := exec.Run(ctx, req, io.Discard); err != nil {
			return nil, err
		}
		p.exec += time.Since(t0)
		ranges++
	}
	p.rng /= time.Duration(ranges)
	p.exec /= time.Duration(ranges)
	return p, nil
}

// set records the probe's per-layer metrics.
func (p *probe) set(res *result) {
	s := p.session
	res.set("runner.prewarm_ms", "ms", ms(s.Prewarm))
	res.set("runner.experiments_ms", "ms", ms(s.Total-s.Prewarm))
	res.set("core.conditions_recorded", "count", float64(s.CacheRecords))
	res.set("core.cache_hits", "count", float64(s.CacheHits))
	res.set("core.prewarm_wall_ms", "ms", ms(p.wall))
	res.set("core.prewarm_busy_ms", "ms", ms(p.busy))
	res.set("browser.load_ms", "ms", ms(p.loadDur))
	res.set("browser.loads", "count", float64(p.loads))
	res.set("browser.conns", "count", float64(p.conns))
	res.set("transport.retransmissions", "count", float64(p.retransmissions))
	res.set("transport.rtos", "count", float64(p.rtos))
	res.set("video.select_ms", "ms", ms(p.typical))
	res.set("experiments.cells_ms", "ms", ms(p.cells))
	res.set("population.run_ms", "ms", ms(p.popRun))
	res.set("population.run_range_ms", "ms", ms(p.rng))
	res.set("population.votes", "count", float64(p.pop.Votes))
	res.set("population.kept_ratio", "ratio", float64(p.pop.Kept)/float64(p.pop.Participants))
	res.set("qoe.shard_exec_ms", "ms", ms(p.exec))
}

// decodeStream times qoe.DecodeStream over a run stream (median of
// repeats) and counts its allocations per decode.
func decodeStream(res *result, stream []byte) (time.Duration, error) {
	const repeats = 50
	var times []float64
	var sink countingSink
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < repeats; i++ {
		sink.rows = 0
		t0 := time.Now()
		if _, err := qoe.DecodeStream(bytes.NewReader(stream), &sink); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(t0)))
	}
	runtime.ReadMemStats(&m1)
	d := time.Duration(stats.Median(times))
	res.set("qoe.decode_ms", "ms", ms(d))
	res.set("qoe.decode_allocs", "count", float64(m1.Mallocs-m0.Mallocs)/repeats)
	res.set("qoe.stream_bytes", "bytes", float64(len(stream)))
	res.set("qoe.rows", "count", float64(sink.rows))
	return d, nil
}

// storeGet times store.Get of a stream from a fresh spill store (median of
// repeats).
func storeGet(env *env, res *result, id string, stream []byte) (time.Duration, error) {
	dir, err := env.storeDir("probe-")
	if err != nil {
		return 0, err
	}
	st, err := store.Open(dir, nil)
	if err != nil {
		return 0, err
	}
	if err := st.Put(id, "probe", stream); err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		got, _, ok := st.Get(id)
		times = append(times, float64(time.Since(t0)))
		if !ok || !bytes.Equal(got, stream) {
			return 0, fmt.Errorf("%w: store.Get did not return the stored stream", errWrongOutput)
		}
	}
	d := time.Duration(stats.Median(times))
	res.set("store.get_ms", "ms", ms(d))
	return d, nil
}

// ---- per-workload probes and layer tables ----

// commonProbe runs the layer probes, then the decode and store probes on
// the served stream (nil: the probe tuple's own stream).
func commonProbe(ctx context.Context, env *env, tp *tracedRun, seed int64, exec *qoe.ShardExecutor,
	id string, served []byte) (*probe, time.Duration, error) {
	p, err := probeLayers(ctx, seed, exec)
	if err != nil {
		return nil, 0, err
	}
	p.set(tp.res)
	s := served
	if s == nil {
		s = p.stream
	}
	dec, err := decodeStream(tp.res, s)
	if err != nil {
		return nil, 0, err
	}
	if _, err := storeGet(env, tp.res, id, s); err != nil {
		return nil, 0, err
	}
	return p, dec, nil
}

func (w *coldStudy) probe(ctx context.Context, env *env, tp *tracedRun) error {
	st := tp.stack.(*coldStack)
	seed := w.requestSeed(0)
	id, err := runID(coldExperiment, seed)
	if err != nil {
		return err
	}
	served := st.capture.get("cold")
	p, dec, err := commonProbe(ctx, env, tp, seed, nil, id, served)
	if err != nil {
		return err
	}
	if !bytes.Equal(served, p.stream) {
		tp.res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: cold-study: served stream (%d bytes) differs from the in-process Session.Run (%d bytes)\n",
			len(served), len(p.stream))
	}
	if err := setServerMetrics(ctx, tp, []*server{st.srv}, []qoe.DaemonMetrics{st.base}, []string{"cold"}); err != nil {
		return err
	}
	plainLat := ms(tp.plain.samples[0].d) // request 0, the probed tuple
	tp.res.set("serve.residual_ms", "ms", plainLat-ms(p.session.Total))

	// Layer table of the traced request 0.
	lat := ms(tp.traced.samples[0].d)
	t := tp.table
	t.total, t.plain = lat, plainLat
	spans := spansOf(tp.spans, id)
	t.row("serve", "admit", spans["admit"], "")
	t.row("serve", "queue_wait", spans["queue_wait"], "")
	busyNote := fmt.Sprintf("parallel: %.0f ms wall, %.0f ms busy (%.2f cores); browser.Load %.0f ms of the busy time sequentially",
		ms(p.wall), ms(p.busy), float64(p.busy)/float64(p.wall), ms(p.loadDur))
	t.row("runner/core", "prewarm", ms(p.session.Prewarm), busyNote)
	t.row("video", "select typical", ms(p.typical), "")
	t.row("experiments", "pop-ab cells", ms(p.cells), "")
	t.row("population", "RunAB", ms(p.popRun), fmt.Sprintf("%d votes, kept %d of %d", p.pop.Votes, p.pop.Kept, p.pop.Participants))
	t.row("serve", "publish", spans["publish"], "")
	t.row("qoe", "decode", ms(dec), "")
	t.note(fmt.Sprintf("context: serve simulate span %.1f ms, run span %.1f ms; in-process Session.Run %.1f ms",
		spans["simulate"], spans["run"], ms(p.session.Total)))
	t.note("the runner, video, experiments, population and decode rows come from in-process calls made after the traced request;")
	t.note("a change in host speed between the two shows in the residual, negative when the calls ran slower")
	return nil
}

func (w *shardFill) probe(ctx context.Context, env *env, tp *tracedRun) error {
	st := tp.stack.(*shardStack)
	id, err := runID(coldExperiment, w.tuple)
	if err != nil {
		return err
	}
	p, _, err := commonProbe(ctx, env, tp, w.tuple, w.exec, id, nil)
	if err != nil {
		return err
	}
	if err := setServerMetrics(ctx, tp, []*server{st.srv}, []qoe.DaemonMetrics{st.base}, []string{"cold"}); err != nil {
		return err
	}
	plainLat := w.latencyP50(tp.plain)
	tp.res.set("serve.residual_ms", "ms", plainLat-ms(p.exec))

	// Layer table of the mean traced request.
	tr := tp.traced
	t := tp.table
	t.total, t.plain = stats.Mean(tr.latencies("")), stats.Mean(tp.plain.latencies(""))
	t.row("serve", "admit", tr.perRequest(tp.spanMS("", "admit")), "")
	t.row("serve", "queue_wait", tr.perRequest(tp.spanMS("", "queue_wait")), "")
	t.row("experiments", "pop-ab cells", ms(p.cells), "")
	t.row("population", "RunABRange", ms(p.rng), "8 shards, participant + conformance")
	t.row("qoe", "shard encode", ms(p.exec-p.cells-p.rng), "ShardExecutor.Run - cells - RunABRange")
	t.row("serve", "publish", tr.perRequest(tp.spanMS("", "publish")), "")
	t.note(fmt.Sprintf("context: serve simulate span %.2f ms per request; in-process ShardExecutor.Run %.2f ms",
		tr.perRequest(tp.spanMS("", "simulate")), ms(p.exec)))
	return nil
}

func (w *warmReplay) probe(ctx context.Context, env *env, tp *tracedRun) error {
	st := tp.stack.(*warmStack)
	for _, c := range warmTiers {
		if got := st.capture.get(c); !bytes.Equal(got, w.wantBytes) {
			tp.res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: warm-replay: %s tier served %d bytes that differ from the in-process run (%d bytes)\n",
				c, len(got), len(w.wantBytes))
		}
	}
	id, err := runID(warmExperiment, w.tuple)
	if err != nil {
		return err
	}
	// The population-side layers are probed on the pop-ab tuple at the
	// replayed tuple's seed: a warm replay runs none of them.
	_, dec, err := commonProbe(ctx, env, tp, w.tuple, nil, id, w.wantBytes)
	if err != nil {
		return err
	}
	if err := setServerMetrics(ctx, tp, st.tiers, st.base, warmTiers); err != nil {
		return err
	}
	tp.res.set("serve.residual_ms", "ms", w.latencyP50(tp.plain)-ms(dec))

	// Layer table of the mean traced request of each tier.
	tr := tp.traced
	t := tp.table
	for i, c := range warmTiers {
		n := float64(tr.classCount(c))
		srv := st.tiers[i].name
		per := func(names ...string) float64 { return tp.spanMS(srv, names...) / n }
		lat, plain := stats.Mean(tr.latencies(c)), stats.Mean(tp.plain.latencies(c))
		t.total += lat / 3
		t.plain += plain / 3
		t.row("serve/"+c, "admit", per("admit")/3, "")
		switch c {
		case "disk":
			t.row("serve/"+c, "disk_read", per("disk_read")/3, "")
		case "peer":
			t.row("serve/"+c, "queue_wait", per("queue_wait")/3, "")
			t.row("serve/"+c, "peer_fill", per("peer_fill")/3, "fetch from the mem tier")
			t.row("serve/"+c, "publish", per("publish")/3, "")
		}
		t.row("qoe/"+c, "decode", ms(dec)/3, "")
		t.note(fmt.Sprintf("%s tier: mean traced latency %.3f ms (untraced %.3f ms) over %d requests", c, lat, plain, int(n)))
	}
	t.note("rows are per tier, weighted 1/3 each: the table accounts for the mean latency of one request per tier")
	return nil
}

// spansOf sums span durations (ms) by name within one trace.
func spansOf(spans []span, traceID string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		if s.TraceID == traceID {
			out[s.Name] += float64(s.DurNS) / 1e6
		}
	}
	return out
}

// setServerMetrics records the servers' tier counters over the traced phase
// and the mean of each server's latency-histogram p50 for its serving class
// (the histograms span the server's life, set-up requests included).
func setServerMetrics(ctx context.Context, tp *tracedRun, servers []*server, bases []qoe.DaemonMetrics, classes []string) error {
	var hitsMem, hitsDisk, hitsPeer, joined, started int64
	var p50 float64
	for i, s := range servers {
		m, err := metricsDelta(ctx, s, bases[i])
		if err != nil {
			return err
		}
		p50 += m.Latency[classes[i]].P50 * 1e3 / float64(len(servers))
		hitsMem += m.CacheHitsMem
		hitsDisk += m.CacheHitsDisk
		hitsPeer += m.CacheHitsPeer
		joined += m.RunsDeduped
		started += m.RunsStarted
	}
	res := tp.res
	res.set("serve.server_p50_ms", "ms", p50)
	res.set("serve.cache_hits_mem", "count", float64(hitsMem))
	res.set("serve.cache_hits_disk", "count", float64(hitsDisk))
	res.set("serve.cache_hits_peer", "count", float64(hitsPeer))
	res.set("serve.runs_deduped", "count", float64(joined))
	res.set("serve.runs_started", "count", float64(started))
	return nil
}

// layerTable is the traced run's attribution of one request's latency:
// self-time rows plus the unattributed residual.
type layerTable struct {
	title        string
	total, plain float64 // traced and untraced latency, ms
	rows         []layerRow
	notes        []string
}

type layerRow struct {
	layer, what string
	ms          float64
	note        string
}

func (t *layerTable) row(layer, what string, v float64, note string) {
	t.rows = append(t.rows, layerRow{layer, what, v, note})
}

func (t *layerTable) note(s string) { t.notes = append(t.notes, s) }

func (t *layerTable) print(w io.Writer) {
	fmt.Fprintf(w, "layer table: %s, traced latency %.3f ms (tracing off %.3f ms, overhead %+.3f ms)\n",
		t.title, t.total, t.plain, t.total-t.plain)
	fmt.Fprintf(w, "  %-14s %-16s %12s %7s\n", "layer", "self time", "ms", "share")
	var sum float64
	for _, r := range t.rows {
		sum += r.ms
		fmt.Fprintf(w, "  %-14s %-16s %12.3f %6.1f%%  %s\n", r.layer, r.what, r.ms, 100*r.ms/t.total, r.note)
	}
	fmt.Fprintf(w, "  %-14s %-16s %12.3f %6.1f%%  %s\n", "unattributed", "residual", t.total-sum, 100*(t.total-sum)/t.total,
		"latency - sum of rows")
	fmt.Fprintf(w, "  %-14s %-16s %12.3f %6.1f%%\n", "total", "", t.total, 100.0)
	for _, n := range t.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
}
