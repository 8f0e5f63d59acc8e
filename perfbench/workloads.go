package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"

	"repro/internal/stats"
	"repro/pkg/qoe"
	"repro/pkg/qoe/qoed"
)

// capture keeps the raw served bytes of the first request of each class,
// for the traced run's byte compare.
type capture struct {
	on  bool
	mu  sync.Mutex
	raw map[string][]byte
}

// ctx returns a capturing context for the first request of class, or ctx
// unchanged; keep stores the bytes once the request succeeded.
func (c *capture) ctx(ctx context.Context, class string) (context.Context, func()) {
	if !c.on {
		return ctx, func() {}
	}
	c.mu.Lock()
	_, done := c.raw[class]
	c.mu.Unlock()
	if done {
		return ctx, func() {}
	}
	var buf bytes.Buffer
	return withCapture(ctx, &buf), func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.raw == nil {
			c.raw = make(map[string][]byte)
		}
		if _, done := c.raw[class]; !done {
			c.raw[class] = buf.Bytes()
		}
	}
}

func (c *capture) get(class string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.raw[class]
}

// metricsDelta returns a server's metrics with its counters taken relative to
// base, the snapshot at the end of set-up.
func metricsDelta(ctx context.Context, s *server, base qoe.DaemonMetrics) (qoe.DaemonMetrics, error) {
	m, err := s.client.Metrics(ctx)
	if err != nil {
		return m, err
	}
	m.RunsStarted -= base.RunsStarted
	m.RunsCompleted -= base.RunsCompleted
	m.CacheHitsMem -= base.CacheHitsMem
	m.CacheHitsDisk -= base.CacheHitsDisk
	m.CacheHitsPeer -= base.CacheHitsPeer
	m.RunsDeduped -= base.RunsDeduped
	m.StoreEntries -= base.StoreEntries
	return m, nil
}

// ---- cold-study ----

// coldExperiment is ROADMAP's canonical cold run: one pop-ab study at quick
// scale, which records 100 conditions and runs the population engine.
const coldExperiment = "pop-ab"

type coldStudy struct {
	seed int64
	want qoe.SummaryEvent // accounting every cold pop-ab summary carries
}

func newColdStudy(seed int64) workload { return &coldStudy{seed: seed} }

func (w *coldStudy) conns() int          { return 1 }
func (w *coldStudy) tracedRequests() int { return 1 }

// requestSeed is the fresh master seed of request i; index -1 is the
// out-of-sequence warm-up request of set-up.
func (w *coldStudy) requestSeed(i int) int64 {
	if i < 0 {
		return seedAt(w.seed, "cold-warmup", 0)
	}
	return seedAt(w.seed, "cold", i)
}

func (w *coldStudy) request(i int) qoe.RunRequest {
	return qoe.RunRequest{Experiments: []string{coldExperiment}, Scale: qoe.ScaleQuick, Seed: w.requestSeed(i)}
}

func (w *coldStudy) reference(ctx context.Context, env *env) error {
	n := len(planOf(coldExperiment).conditions())
	w.want = qoe.SummaryEvent{Experiments: 1, Conditions: n, CacheRecords: uint64(n)}
	return nil
}

// check compares a summary's accounting (experiments, conditions recorded);
// rows and cache hits are seed-independent too but checked only against
// the in-process run of the traced phase.
func (w *coldStudy) check(got qoe.SummaryEvent, rows int) error {
	if got.Experiments != w.want.Experiments || got.Conditions != w.want.Conditions ||
		got.CacheRecords != w.want.CacheRecords || got.Rows == 0 || got.Rows != rows {
		return fmt.Errorf("%w: cold summary %+v (%d rows decoded), want %d experiment, %d conditions recorded",
			errWrongOutput, got, rows, w.want.Experiments, w.want.CacheRecords)
	}
	return nil
}

type coldStack struct {
	w    *coldStudy
	srv  *server
	base qoe.DaemonMetrics
	capture
}

// setUp boots a one-worker qoed with the default RAM cache and a private
// spill store, and runs one untimed cold request at an out-of-sequence seed.
func (w *coldStudy) setUp(ctx context.Context, env *env, traced bool) (stack, error) {
	dir, err := env.storeDir("cold-")
	if err != nil {
		return nil, err
	}
	srv, err := env.start("cold", qoed.Config{Workers: 1, StoreDir: dir}, traced)
	if err != nil {
		return nil, err
	}
	st := &coldStack{w: w, srv: srv, capture: capture{on: traced}}
	var rows countingSink
	sum, err := srv.client.Run(ctx, w.request(-1), &rows)
	if err == nil {
		err = w.check(sum, rows.rows)
	}
	if err == nil {
		err = srv.waitMetrics(ctx, "the warm-up run's store write", func(m qoe.DaemonMetrics) bool { return m.StoreEntries >= 1 })
	}
	if err == nil {
		st.base, err = srv.client.Metrics(ctx)
	}
	if err != nil {
		st.close()
		return nil, fmt.Errorf("cold warm-up: %w", err)
	}
	return st, nil
}

func (s *coldStack) do(ctx context.Context, i int) (string, error) {
	ctx, keep := s.capture.ctx(ctx, "cold")
	var rows countingSink
	sum, err := s.srv.client.Run(ctx, s.w.request(i), &rows)
	if err != nil {
		return "", err
	}
	if err := s.w.check(sum, rows.rows); err != nil {
		return "", err
	}
	keep()
	return "cold", nil
}

// verify: every completed request simulated once and wrote through to the
// spill store; no tier served a cold request.
func (s *coldStack) verify(ctx context.Context, ph *phase) error {
	n := int64(ph.completed())
	if err := s.srv.waitMetrics(ctx, "store write-through", func(m qoe.DaemonMetrics) bool {
		return m.StoreEntries-s.base.StoreEntries >= n
	}); err != nil {
		return err
	}
	d, err := metricsDelta(ctx, s.srv, s.base)
	if err != nil {
		return err
	}
	if d.RunsCompleted != n || d.CacheHitsMem+d.CacheHitsDisk+d.CacheHitsPeer != 0 || d.StoreEntries != n {
		return fmt.Errorf("cold server: %d runs completed, %d/%d/%d mem/disk/peer hits, %d store entries added; want %d, 0, %d",
			d.RunsCompleted, d.CacheHitsMem, d.CacheHitsDisk, d.CacheHitsPeer, d.StoreEntries, n, n)
	}
	return nil
}

func (s *coldStack) spans(ctx context.Context) ([]span, error) {
	var out []span
	for i := 0; ; i++ {
		id, err := runID(coldExperiment, s.w.requestSeed(i))
		if err != nil {
			return nil, err
		}
		sp, err := s.srv.traceSpans(ctx, id)
		if err != nil {
			return nil, err
		}
		if len(sp) == 0 {
			return out, nil // requests are issued in sequence order
		}
		out = append(out, sp...)
	}
}

func (s *coldStack) close() { s.srv.close() }

func (w *coldStudy) latencyP50(ph *phase) float64 { return stats.Median(ph.latencies("")) }

// ---- shard-fill ----

// shardStudy is the population study the fabric splits; shardWidth is the
// range one worker request covers: the fabric's plan for a 2-worker pool
// splits the 64 canonical shards into eight 8-shard sub-jobs.
const (
	shardStudy = qoe.StudyPopAB
	shardWidth = 8
)

type shardFill struct {
	seed   int64
	tuple  int64 // master seed of the one tuple every request targets
	ranges []qoe.ShardRange
	order  []int               // visiting order of ranges, from the seed
	want   [][]json.RawMessage // per range: its shard states, in order
	exec   *qoe.ShardExecutor  // reference executor; its testbed stays warm
	ready  chan struct{}       // closed once want or refErr is set
	refErr error
}

func newShardFill(seed int64) workload {
	return &shardFill{seed: seed, tuple: seedAt(seed, "shard", 0)}
}

func (w *shardFill) conns() int          { return 1 }
func (w *shardFill) tracedRequests() int { return 64 }

func (w *shardFill) request(k int) qoe.ShardRequest {
	return qoe.ShardRequest{Study: shardStudy, Scale: qoe.ScaleQuick, Seed: w.tuple, Range: w.ranges[k]}
}

// reference computes every range's states once with an in-process
// executor; the server's answers must match them byte for byte. Recording
// the executor's testbed is single-threaded, so it runs in the background,
// beside the first set-up's recording on the server; check waits for it.
func (w *shardFill) reference(ctx context.Context, env *env) error {
	total, err := qoe.StudyShards(shardStudy)
	if err != nil {
		return err
	}
	for lo := 0; lo < total; lo += shardWidth {
		w.ranges = append(w.ranges, qoe.ShardRange{Lo: lo, Hi: min(lo+shardWidth, total)})
	}
	w.order = rand.New(rand.NewSource(w.seed)).Perm(len(w.ranges))
	w.exec = qoe.NewShardExecutor(1)
	w.ready = make(chan struct{})
	go func() {
		defer close(w.ready)
		w.refErr = w.computeReference(ctx)
	}()
	return nil
}

func (w *shardFill) computeReference(ctx context.Context) error {
	for k := range w.ranges {
		var buf bytes.Buffer
		if err := w.exec.Run(ctx, w.request(k), &buf); err != nil {
			return err
		}
		states, err := shardStates(buf.Bytes())
		if err != nil {
			return err
		}
		w.want = append(w.want, states)
	}
	return nil
}

// shardStates extracts the per-shard states of a shard stream.
func shardStates(stream []byte) ([]json.RawMessage, error) {
	var out []json.RawMessage
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ev qoe.ShardEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, err
		}
		if ev.Type == "shard" {
			out = append(out, ev.State)
		}
	}
	return out, sc.Err()
}

func (w *shardFill) check(k int, got []qoe.ShardData) error {
	<-w.ready
	if w.refErr != nil {
		return fmt.Errorf("reference outputs: %w", w.refErr)
	}
	want := w.want[k]
	if len(got) != len(want) {
		return fmt.Errorf("%w: range %v returned %d shards, want %d", errWrongOutput, w.ranges[k], len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].State, want[i]) {
			return fmt.Errorf("%w: range %v shard %d state differs from the in-process executor", errWrongOutput, w.ranges[k], got[i].Shard)
		}
	}
	return nil
}

type shardStack struct {
	w    *shardFill
	srv  *server
	base qoe.DaemonMetrics
}

// setUp boots a worker with the result cache off, so every request
// recomputes, and sends it the first range, which records the tuple's
// testbed.
func (w *shardFill) setUp(ctx context.Context, env *env, traced bool) (stack, error) {
	srv, err := env.start("shard", qoed.Config{CacheBytes: -1}, traced)
	if err != nil {
		return nil, err
	}
	st := &shardStack{w: w, srv: srv}
	k := w.order[0]
	got, err := srv.client.RunShards(ctx, w.request(k))
	if err == nil {
		err = w.check(k, got)
	}
	if err == nil {
		st.base, err = srv.client.Metrics(ctx)
	}
	if err != nil {
		st.close()
		return nil, fmt.Errorf("shard testbed: %w", err)
	}
	return st, nil
}

func (s *shardStack) do(ctx context.Context, i int) (string, error) {
	k := s.w.order[i%len(s.w.order)]
	got, err := s.srv.client.RunShards(ctx, s.w.request(k))
	if err != nil {
		return "", err
	}
	if err := s.w.check(k, got); err != nil {
		return "", err
	}
	return "shard", nil
}

// verify: with the cache off, every completed request ran on the worker.
func (s *shardStack) verify(ctx context.Context, ph *phase) error {
	d, err := metricsDelta(ctx, s.srv, s.base)
	if err != nil {
		return err
	}
	n := int64(ph.completed())
	if d.RunsStarted != n || d.CacheHitsMem+d.CacheHitsDisk+d.CacheHitsPeer != 0 {
		return fmt.Errorf("shard server: %d runs started, %d cache hits; want %d, 0",
			d.RunsStarted, d.CacheHitsMem+d.CacheHitsDisk+d.CacheHitsPeer, n)
	}
	return nil
}

func (s *shardStack) spans(ctx context.Context) ([]span, error) {
	var out []span
	for k := range s.w.ranges {
		r := s.w.ranges[k]
		spec, err := qoed.CanonicalizeShard(shardStudy, string(qoe.ScaleQuick), s.w.tuple, r.Lo, r.Hi, 0)
		if err != nil {
			return nil, err
		}
		sp, err := s.srv.traceSpans(ctx, spec.ID())
		if err != nil {
			return nil, err
		}
		out = append(out, sp...)
	}
	return out, nil
}

func (s *shardStack) close() { s.srv.close() }

func (w *shardFill) latencyP50(ph *phase) float64 { return stats.Median(ph.latencies("")) }

// ---- warm-replay ----

// warmExperiment is the replayed tuple: fig6 at quick scale, a 104-line
// NDJSON stream, large enough that program work sets the median.
const warmExperiment = "fig6"

// warmTiers are the serving tiers, visited round-robin.
var warmTiers = []string{"mem", "disk", "peer"}

type warmReplay struct {
	seed      int64
	tuple     int64 // master seed of the replayed tuple; see reference
	want      qoe.SummaryEvent
	wantBytes []byte
}

func newWarmReplay(seed int64) workload { return &warmReplay{seed: seed} }

func (w *warmReplay) conns() int          { return 2 }
func (w *warmReplay) tracedRequests() int { return 3000 }

func (w *warmReplay) request() qoe.RunRequest {
	return qoe.RunRequest{Experiments: []string{warmExperiment}, Scale: qoe.ScaleQuick, Seed: w.tuple}
}

// warmTupleTries bounds the search for a cacheable tuple.
const warmTupleTries = 8

// reference runs the tuple in process, exactly as qoed runs it
// (parallelism 1, streamed), for the summary, row count and bytes. Only a
// run that succeeds is cached, so the replayed tuple is the first of the
// seed's sequence whose run succeeds: fig6 at quick scale fails on some
// master seeds, when all five loads of a DA2GC condition stall. Each such
// seed is reported on standard error.
func (w *warmReplay) reference(ctx context.Context, env *env) error {
	for j := 0; j < warmTupleTries; j++ {
		w.tuple = seedAt(w.seed, "warm", j)
		sess, err := qoe.NewSession(qoe.WithScenarios(warmExperiment), qoe.WithScale(qoe.ScaleQuick),
			qoe.WithSeed(w.tuple), qoe.WithParallelism(1))
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		sum, err := sess.Run(ctx, qoe.StreamSink(&buf))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: warm-replay: %s at seed %d fails in process, so it cannot be cached: %v\n",
				warmExperiment, w.tuple, err)
			continue
		}
		w.want, w.wantBytes = sum.SummaryEvent, buf.Bytes()
		return nil
	}
	return fmt.Errorf("no %s tuple of %d succeeded", warmExperiment, warmTupleTries)
}

func (w *warmReplay) check(got qoe.SummaryEvent, rows int) error {
	if err := summaryMatches(got, w.want); err != nil {
		return err
	}
	if rows != w.want.Rows {
		return fmt.Errorf("%w: decoded %d rows, want %d", errWrongOutput, rows, w.want.Rows)
	}
	return nil
}

type warmStack struct {
	w     *warmReplay
	tiers []*server // index-aligned with warmTiers
	base  []qoe.DaemonMetrics
	capture
}

// setUp boots the three tiers. The disk server (no RAM cache) simulates the
// tuple once into its spill store; the mem server fills its RAM cache from
// the disk server's store through the peer-fill protocol; the peer server
// has no local tier and the mem server as its peer.
func (w *warmReplay) setUp(ctx context.Context, env *env, traced bool) (stack, error) {
	st := &warmStack{w: w, capture: capture{on: traced}}
	err := st.build(ctx, env, traced)
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (s *warmStack) build(ctx context.Context, env *env, traced bool) error {
	dir, err := env.storeDir("warm-")
	if err != nil {
		return err
	}
	disk, err := env.start("disk", qoed.Config{CacheBytes: -1, StoreDir: dir}, traced)
	if err != nil {
		return err
	}
	s.tiers = append(s.tiers, disk)
	if err := s.fill(ctx, disk, "store write", func(m qoe.DaemonMetrics) bool { return m.StoreEntries >= 1 }); err != nil {
		return err
	}
	mem, err := env.start("mem", qoed.Config{Peers: []string{disk.hs.URL}}, traced)
	if err != nil {
		return err
	}
	s.tiers = append([]*server{mem}, s.tiers...)
	if err := s.fill(ctx, mem, "RAM cache fill", func(m qoe.DaemonMetrics) bool { return m.CacheEntries >= 1 }); err != nil {
		return err
	}
	peer, err := env.start("peer", qoed.Config{CacheBytes: -1, Peers: []string{mem.hs.URL}}, traced)
	if err != nil {
		return err
	}
	s.tiers = append(s.tiers, peer)
	for _, t := range s.tiers {
		m, err := t.client.Metrics(ctx)
		if err != nil {
			return err
		}
		s.base = append(s.base, m)
	}
	return nil
}

// fill requests the tuple once from srv and waits until it has landed in
// the tier ready reports.
func (s *warmStack) fill(ctx context.Context, srv *server, what string, ready func(qoe.DaemonMetrics) bool) error {
	var rows countingSink
	sum, err := srv.client.Run(ctx, s.w.request(), &rows)
	if err == nil {
		err = s.w.check(sum, rows.rows)
	}
	if err == nil {
		err = srv.waitMetrics(ctx, what, ready)
	}
	if err != nil {
		return fmt.Errorf("%s server fill: %w", srv.name, err)
	}
	return nil
}

func (s *warmStack) do(ctx context.Context, i int) (string, error) {
	t := i % len(warmTiers)
	class := warmTiers[t]
	ctx, keep := s.capture.ctx(ctx, class)
	var rows countingSink
	sum, err := s.tiers[t].client.Run(ctx, s.w.request(), &rows)
	if err != nil {
		return "", err
	}
	if err := s.w.check(sum, rows.rows); err != nil {
		return "", err
	}
	keep()
	return class, nil
}

// verify: each tier served exactly its own class, and no replay server
// simulated anything. Two connections can meet on the peer tier, where the
// second request joins the first one's fill (runs_deduped); the mem tier
// serves every peer fill on top of its own requests.
func (s *warmStack) verify(ctx context.Context, ph *phase) error {
	d := make([]qoe.DaemonMetrics, len(s.tiers))
	for i, t := range s.tiers {
		var err error
		if d[i], err = metricsDelta(ctx, t, s.base[i]); err != nil {
			return err
		}
		if d[i].RunsStarted != 0 {
			return fmt.Errorf("%s server started %d runs during the phase", t.name, d[i].RunsStarted)
		}
	}
	nMem, nDisk, nPeer := ph.classCount("mem"), ph.classCount("disk"), ph.classCount("peer")
	fills := d[2].CacheHitsPeer
	if d[0].CacheHitsMem != nMem+fills || d[1].CacheHitsDisk != nDisk || fills+d[2].RunsDeduped != nPeer {
		return fmt.Errorf("tier hits mem %d, disk %d, peer %d + %d joined; want %d (%d mem + %d peer fills), %d, %d in all",
			d[0].CacheHitsMem, d[1].CacheHitsDisk, fills, d[2].RunsDeduped, nMem+fills, nMem, fills, nDisk, nPeer)
	}
	if s.base[0].RunsStarted != 0 || s.base[2].RunsStarted != 0 {
		return fmt.Errorf("mem or peer server simulated during set-up")
	}
	return nil
}

func (s *warmStack) spans(ctx context.Context) ([]span, error) {
	id, err := runID(warmExperiment, s.w.tuple)
	if err != nil {
		return nil, err
	}
	var out []span
	for _, t := range s.tiers {
		sp, err := t.traceSpans(ctx, id)
		if err != nil {
			return nil, err
		}
		out = append(out, sp...)
	}
	return out, nil
}

func (s *warmStack) close() {
	for _, t := range s.tiers {
		t.close()
	}
}

// latencyP50 for warm-replay is the mean of the three per-tier client
// p50s: one number that moves with any tier, weighting each tier equally.
func (w *warmReplay) latencyP50(ph *phase) float64 {
	var sum float64
	for _, c := range warmTiers {
		sum += stats.Median(ph.latencies(c))
	}
	return sum / float64(len(warmTiers))
}
