package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/qoe"
)

// newTestServer builds a Server (optionally overriding the run function) and
// an httptest front end, both torn down with the test.
func newTestServer(t *testing.T, cfg Config, fn runFunc) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if fn != nil {
		s.runFn = fn
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

// get fetches a URL and returns status and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// goldenStream loads the pinned table1 NDJSON stream the wire format is
// byte-compatible with.
func goldenStream(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile("../../testdata/golden/table1.stream.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// freshStream runs the canonical tuple locally, exactly as the server's
// defaultRun would — the reference bytes for identity assertions.
func freshStream(t *testing.T, seed int64, experiments ...string) []byte {
	t.Helper()
	sess, err := qoe.NewSession(
		qoe.WithScenarios(experiments...),
		qoe.WithSeed(seed),
		qoe.WithScale(qoe.ScaleQuick),
		qoe.WithParallelism(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sess.Run(context.Background(), qoe.StreamSink(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, nil)
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz = %d %s", code, body)
	}
}

func TestCatalog(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, nil)
	code, body := get(t, ts.URL+"/v1/catalog")
	if code != http.StatusOK {
		t.Fatalf("catalog = %d %s", code, body)
	}
	var cat struct {
		SchemaVersion int `json:"schema_version"`
		Experiments   []struct {
			Name string `json:"name"`
		} `json:"experiments"`
		Networks  []json.RawMessage `json:"networks"`
		Scenarios []json.RawMessage `json:"scenarios"`
		Scales    []string          `json:"scales"`
	}
	if err := json.Unmarshal(body, &cat); err != nil {
		t.Fatalf("catalog not JSON: %v\n%s", err, body)
	}
	if cat.SchemaVersion != qoe.SchemaVersion {
		t.Fatalf("catalog schema_version = %d", cat.SchemaVersion)
	}
	if len(cat.Experiments) != len(qoe.ExperimentNames()) {
		t.Fatalf("catalog lists %d experiments, registry has %d", len(cat.Experiments), len(qoe.ExperimentNames()))
	}
	if len(cat.Networks) == 0 || len(cat.Scenarios) == 0 {
		t.Fatal("catalog missing networks or scenarios")
	}
	if len(cat.Scales) != 3 {
		t.Fatalf("catalog scales = %v", cat.Scales)
	}
}

// TestCanonicalization: set-equal selections collapse onto one ID, distinct
// tuples do not, and the wire-level synonyms (experiments/scenarios, comma
// and repeat separators) all reach the same canonical spec.
func TestCanonicalization(t *testing.T) {
	a, err := Canonicalize([]string{"table2", "table1"}, nil, "quick", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Canonicalize([]string{"table1"}, []string{"table2", "table1"}, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != b.ID() || a.Key() != b.Key() {
		t.Fatalf("set-equal specs diverge:\n%s\n%s", a.Key(), b.Key())
	}
	if len(a.Experiments) != 2 || a.Experiments[0] != "table1" {
		t.Fatalf("canonical selection = %v, want sorted dedup", a.Experiments)
	}
	c, err := Canonicalize([]string{"table1", "table2"}, nil, "quick", 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID() == a.ID() {
		t.Fatal("different seeds must produce different IDs")
	}
	d, err := Canonicalize([]string{"table1", "table2"}, nil, "standard", 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID() == a.ID() {
		t.Fatal("different scales must produce different IDs")
	}
	if !strings.HasPrefix(a.Key(), fmt.Sprintf("v%d|", qoe.SchemaVersion)) {
		t.Fatalf("key %q does not lead with the schema version", a.Key())
	}
	if _, err := Canonicalize([]string{"fig7"}, nil, "quick", 1); err == nil || !strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("unknown experiment: %v, want did-you-mean", err)
	}
	if _, err := Canonicalize([]string{"table1"}, nil, "galactic", 1); err == nil {
		t.Fatal("unknown scale must fail")
	}
	if all, err := Canonicalize(nil, nil, "", 1); err != nil || len(all.Experiments) != len(qoe.ExperimentNames()) {
		t.Fatalf("empty selection = %v, %v; want the full registry", all.Experiments, err)
	}
}

// FuzzCanonicalize: a comma-separated selection, a scale and a seed never
// panic. An accepted tuple is sorted and unique, canonicalizing it again
// keeps its Key, and so does the reversed selection.
func FuzzCanonicalize(f *testing.F) {
	scales := []string{"", "quick", "standard", "paper"}
	for i, name := range qoe.ExperimentNames() {
		f.Add(name, scales[i%len(scales)], int64(i))
	}
	f.Add("all", "", int64(1))
	f.Add("table2,table1,table2", "quick", int64(-7))
	f.Add("fig7", "quick", int64(1))
	f.Fuzz(func(t *testing.T, selection, scale string, seed int64) {
		sel := strings.Split(selection, ",")
		spec, err := Canonicalize(sel, nil, scale, seed)
		if err != nil {
			return
		}
		for i := 1; i < len(spec.Experiments); i++ {
			if spec.Experiments[i-1] >= spec.Experiments[i] {
				t.Fatalf("%q: experiments %v not sorted and unique", selection, spec.Experiments)
			}
		}
		again, err := Canonicalize(spec.Experiments, nil, string(spec.Scale), spec.Seed)
		if err != nil || again.Key() != spec.Key() {
			t.Fatalf("%q: re-canonicalized to %q, %v; want %q", selection, again.Key(), err, spec.Key())
		}
		slices.Reverse(sel)
		rev, err := Canonicalize(sel, nil, scale, seed)
		if err != nil || rev.Key() != spec.Key() {
			t.Fatalf("%q reversed: %q, %v; want %q", selection, rev.Key(), err, spec.Key())
		}
	})
}

// FuzzCanonicalizeShard: shard-spec canonicalization never panics, and an
// accepted spec always addresses a valid cell and a non-empty range inside
// its study's shard space, and its ID is stable across canonicalizations.
// Seeded with full, first, last and middle ranges of every cell of every
// shard study, plus boundary and out-of-range cases.
func FuzzCanonicalizeShard(f *testing.F) {
	studies := []string{qoe.StudyPopAB, qoe.StudyPopRating, qoe.StudyPopSweepAdaptive}
	for _, study := range studies {
		shards, err := qoe.StudyShards(study)
		if err != nil {
			f.Fatal(err)
		}
		cells, err := qoe.StudyCells(study)
		if err != nil {
			f.Fatal(err)
		}
		for cell := 0; cell < cells; cell++ {
			for _, r := range [][2]int{{0, shards}, {0, 1}, {shards - 1, shards}, {shards / 4, shards / 2}} {
				f.Add(study, "quick", int64(cell), r[0], r[1], cell)
			}
		}
		f.Add(study, "", int64(1), -1, 1, 0)            // negative lo
		f.Add(study, "paper", int64(1), 0, shards+1, 0) // hi past the shard space
		f.Add(study, "quick", int64(1), 3, 3, 0)        // empty range
		f.Add(study, "quick", int64(1), 5, 2, 0)        // inverted range
		f.Add(study, "quick", int64(1), 0, 1, cells)    // one cell past the grid
		f.Add(study, "quick", int64(1), 0, 1, -1)       // negative cell
		f.Add(study, "huge", int64(1), 0, 1, 0)         // unknown scale
	}
	f.Add("pop-sweep", "quick", int64(1), 0, 1, 0) // not a shard study
	f.Add("", "", int64(0), 0, 0, 0)
	f.Fuzz(func(t *testing.T, study, scale string, seed int64, lo, hi, cell int) {
		spec, err := CanonicalizeShard(study, scale, seed, lo, hi, cell)
		if err != nil {
			return
		}
		shards, err := qoe.StudyShards(study)
		if err != nil {
			t.Fatalf("accepted unknown study %q", study)
		}
		cells, _ := qoe.StudyCells(study)
		sh := spec.Shard
		if sh == nil || sh.Study != study || sh.Range != (qoe.ShardRange{Lo: lo, Hi: hi}) || sh.Cell != cell {
			t.Fatalf("spec %+v does not carry the request (%q, [%d,%d), cell %d)", sh, study, lo, hi, cell)
		}
		if lo < 0 || lo >= hi || hi > shards {
			t.Fatalf("accepted range [%d,%d) for %d shards of %s", lo, hi, shards, study)
		}
		if cell < 0 || cell >= cells {
			t.Fatalf("accepted cell %d for %d cells of %s", cell, cells, study)
		}
		// Re-canonicalizing the spec's own tuple (scale now resolved) must
		// address the same run.
		again, err := CanonicalizeShard(study, string(spec.Scale), seed, lo, hi, cell)
		if err != nil || again.ID() != spec.ID() {
			t.Fatalf("%q re-canonicalized to %q, %v", spec.Key(), again.Key(), err)
		}
	})
}

// TestOneShotMatchesGolden: the serving path end to end — a cold one-shot
// GET streams bytes identical to the pinned `qoebench -stream` golden, and
// a second request (now a cache hit) replays the identical bytes with zero
// simulation.
func TestOneShotMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a session")
	}
	s, ts := newTestServer(t, Config{Workers: 2}, nil)
	want := goldenStream(t)

	url := ts.URL + "/v1/run?experiments=table1&scale=quick&seed=1"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one-shot = %d %s", resp.StatusCode, cold)
	}
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "application/x-ndjson") {
		t.Fatalf("content type = %q", got)
	}
	if resp.Header.Get("X-Qoe-Source") != "live" {
		t.Fatalf("cold source = %q, want live", resp.Header.Get("X-Qoe-Source"))
	}
	if !bytes.Equal(cold, want) {
		t.Fatalf("cold one-shot stream differs from golden (%d vs %d bytes)", len(cold), len(want))
	}

	started := s.met.runsStarted.Value()
	resp, err = http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	warm, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Qoe-Source") != "cache" {
		t.Fatalf("warm source = %q, want cache", resp.Header.Get("X-Qoe-Source"))
	}
	if !bytes.Equal(warm, want) {
		t.Fatal("cached replay differs from golden")
	}
	if s.met.runsStarted.Value() != started {
		t.Fatal("cache hit started a simulation")
	}
	if s.met.runsCacheHit.Value() == 0 {
		t.Fatal("cache hit not counted")
	}
}

// TestSingleflightDedup is the acceptance core: N concurrent identical
// requests produce exactly ONE runner invocation, and every client receives
// the byte-identical stream — which also equals a fresh local run of the
// same tuple. The run is gated so all clients are attached (deduplicated)
// before the first byte is produced.
func TestSingleflightDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a session")
	}
	const clients = 8
	var invocations atomic.Int64
	release := make(chan struct{})
	gated := func(ctx context.Context, spec RunSpec, w io.Writer) error {
		invocations.Add(1)
		<-release
		// A zero-config Server's defaultRun is the plain session path; the
		// gated seam only needs the reference runner, not this server's.
		return new(Server).defaultRun(ctx, spec, w)
	}
	s, ts := newTestServer(t, Config{Workers: 2}, gated)

	url := ts.URL + "/v1/run?experiments=table1&scale=quick&seed=1"
	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}

	// Wait until all but the first client have been deduplicated onto the
	// single live job, then let the simulation produce its bytes.
	deadline := time.Now().Add(10 * time.Second)
	for s.met.runsDeduped.Value() < clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d clients deduplicated", s.met.runsDeduped.Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := invocations.Load(); n != 1 {
		t.Fatalf("runner invoked %d times for %d identical requests, want 1", n, clients)
	}
	want := goldenStream(t)
	for i, body := range bodies {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("client %d received a divergent stream (%d vs %d bytes)", i, len(body), len(want))
		}
	}
	if s.met.runsStarted.Value() != 1 {
		t.Fatalf("runs_started = %d, want 1", s.met.runsStarted.Value())
	}
}

// TestPostRunLifecycle: the durable flow — POST accepts (202) with a
// content-addressed ID, status reaches done, the stream endpoint serves the
// golden bytes, and a repeat POST reports the cached result (200).
func TestPostRunLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a session")
	}
	_, ts := newTestServer(t, Config{Workers: 1}, nil)

	body := `{"experiments":["table1"],"scale":"quick","seed":1}`
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	first, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/runs = %d %s", resp.StatusCode, first)
	}
	var run struct {
		ID        string `json:"id"`
		Key       string `json:"key"`
		Status    string `json:"status"`
		Source    string `json:"source"`
		StreamURL string `json:"stream_url"`
	}
	if err := json.Unmarshal(first, &run); err != nil {
		t.Fatal(err)
	}
	if run.Source != "accepted" || run.ID == "" || !strings.Contains(run.Key, "table1") {
		t.Fatalf("unexpected accept body: %s", first)
	}

	// The stream endpoint blocks until the run completes, then carries the
	// full golden bytes.
	code, stream := get(t, ts.URL+run.StreamURL)
	if code != http.StatusOK {
		t.Fatalf("stream = %d", code)
	}
	if want := goldenStream(t); !bytes.Equal(stream, want) {
		t.Fatalf("posted run stream differs from golden (%d vs %d bytes)", len(stream), len(want))
	}

	// Status must now report the cached result, and a repeat POST routes to
	// the cache with 200.
	code, status := get(t, ts.URL+"/v1/runs/"+run.ID)
	if code != http.StatusOK || !bytes.Contains(status, []byte(`"cached"`)) {
		t.Fatalf("status after completion = %d %s", code, status)
	}
	resp, err = http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	second, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(second, []byte(`"cached"`)) {
		t.Fatalf("repeat POST = %d %s, want 200 cached", resp.StatusCode, second)
	}

	if code, _ := get(t, ts.URL+"/v1/runs/ffffffffffffffffffffffffffffffff"); code != http.StatusNotFound {
		t.Fatalf("unknown run id = %d, want 404", code)
	}
}

// TestQueueFullSheds429: with one worker occupied and a one-deep queue
// occupied, the next distinct run is refused with 429 + Retry-After, and
// the counter records the rejection. Deduplicated and cached requests are
// NOT subject to admission — they cost no queue slot.
func TestQueueFullSheds429(t *testing.T) {
	release := make(chan struct{})
	blocked := func(ctx context.Context, spec RunSpec, w io.Writer) error {
		select {
		case <-release:
		case <-ctx.Done():
			return ctx.Err()
		}
		fmt.Fprintf(w, "{\"schema_version\":1,\"type\":\"summary\",\"experiments\":0,\"rows\":0,\"conditions\":0,\"cache_records\":0,\"cache_hits\":0}\n")
		return nil
	}
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second}, blocked)
	defer close(release)

	post := func(seed int) (*http.Response, []byte) {
		body := fmt.Sprintf(`{"experiments":["table1"],"seed":%d}`, seed)
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	if resp, b := post(1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first run = %d %s", resp.StatusCode, b)
	}
	// Wait for the worker to occupy itself with run 1 so run 2 sits in the
	// queue rather than being picked up instantly.
	deadline := time.Now().Add(5 * time.Second)
	for s.met.runsStarted.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started run 1")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, b := post(2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued run = %d %s", resp.StatusCode, b)
	}
	resp, b := post(3)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated run = %d %s, want 429", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") != "3" {
		t.Fatalf("Retry-After = %q, want 3", resp.Header.Get("Retry-After"))
	}
	if !bytes.Contains(b, []byte("retry_after_seconds")) {
		t.Fatalf("429 body %s missing retry hint", b)
	}
	if s.met.runsRejected.Value() != 1 {
		t.Fatalf("runs_rejected = %d", s.met.runsRejected.Value())
	}
	// Identical to the running tuple: deduplicated, not rejected, despite
	// the full queue.
	if resp, b := post(1); resp.StatusCode != http.StatusAccepted || !bytes.Contains(b, []byte(`"deduped"`)) {
		t.Fatalf("dedup under saturation = %d %s", resp.StatusCode, b)
	}
}

// TestEphemeralCancelOnDisconnect: when the only client of a one-shot run
// disconnects, the run's context is cancelled promptly — the worker is
// reclaimed instead of simulating for nobody — and the aborted run is not
// cached.
func TestEphemeralCancelOnDisconnect(t *testing.T) {
	runStarted := make(chan struct{})
	ctxDone := make(chan struct{})
	hanging := func(ctx context.Context, spec RunSpec, w io.Writer) error {
		close(runStarted)
		<-ctx.Done()
		close(ctxDone)
		return ctx.Err()
	}
	s, ts := newTestServer(t, Config{Workers: 1}, hanging)

	reqCtx, cancelReq := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(reqCtx, "GET", ts.URL+"/v1/run?experiments=table1", nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	<-runStarted
	cancelReq() // the lone client walks away
	select {
	case <-ctxDone:
	case <-time.After(5 * time.Second):
		t.Fatal("run context not cancelled after the last client disconnected")
	}
	<-done
	// The aborted run must finish as failed and leave no cache entry.
	deadline := time.Now().Add(5 * time.Second)
	for s.met.runsFailed.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("aborted run never recorded as failed")
		}
		time.Sleep(time.Millisecond)
	}
	if s.cache.entries() != 0 {
		t.Fatal("cancelled run entered the result cache")
	}
}

// synthSummary is a minimal valid schema_version 1 stream for stub runs.
const synthSummary = `{"schema_version":1,"type":"summary","experiments":1,"rows":0,"conditions":0,"cache_records":0,"cache_hits":0}` + "\n"

// TestAbandonedJobNotDeduped: a new request for a tuple whose live job was
// already cancelled (its one-shot client walked away) must NOT be glued to
// the doomed job — it starts a fresh run and still gets a complete stream.
func TestAbandonedJobNotDeduped(t *testing.T) {
	firstStarted := make(chan struct{})
	releaseFirst := make(chan struct{})
	var calls atomic.Int64
	fn := func(ctx context.Context, spec RunSpec, w io.Writer) error {
		if calls.Add(1) == 1 {
			close(firstStarted)
			<-ctx.Done()     // abandoned by its only client
			<-releaseFirst   // ...but keep occupying live[] until released
			return ctx.Err() // doomed job finishes failed
		}
		io.WriteString(w, synthSummary)
		return nil
	}
	s, ts := newTestServer(t, Config{Workers: 2}, fn)

	// Client A: one-shot, then disconnect.
	reqCtx, cancelReq := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(reqCtx, "GET", ts.URL+"/v1/run?experiments=table1", nil)
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-firstStarted
	cancelReq()
	<-aDone

	// Wait until A's disconnect has actually cancelled the live job.
	spec, err := Canonicalize([]string{"table1"}, nil, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		j := s.live[spec.ID()]
		s.mu.Unlock()
		if j != nil && j.runCtx.Err() != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("live job never observed as cancelled")
		}
		time.Sleep(time.Millisecond)
	}

	// Client B: same tuple. Must get a fresh run (second invocation), not
	// the doomed job's truncated stream.
	bBody := make(chan []byte, 1)
	go func() {
		code, body := get(t, ts.URL+"/v1/run?experiments=table1")
		if code != http.StatusOK {
			t.Errorf("client B = %d", code)
		}
		bBody <- body
	}()
	// B's fresh job runs on the second worker even while the doomed job
	// still occupies the first.
	select {
	case body := <-bBody:
		if string(body) != synthSummary {
			t.Fatalf("client B stream = %q, want the fresh run's summary", body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client B never completed — glued to the doomed job?")
	}
	close(releaseFirst)
	if got := calls.Load(); got != 2 {
		t.Fatalf("run invocations = %d, want 2 (doomed + fresh)", got)
	}
	if s.met.runsDeduped.Value() != 0 {
		t.Fatal("client B was deduplicated onto a cancelled job")
	}
}

// TestFailedRunRetainsStatus: a failed durable run stays introspectable —
// status reports done + the error, the stream endpoint serves the partial
// summary-less bytes — instead of 404ing the moment it dies; and a
// successful retry supersedes the tombstone.
func TestFailedRunRetainsStatus(t *testing.T) {
	var calls atomic.Int64
	fn := func(ctx context.Context, spec RunSpec, w io.Writer) error {
		if calls.Add(1) == 1 {
			io.WriteString(w, `{"schema_version":1,"type":"progress","stage":"experiment","completed":0,"total":1}`+"\n")
			return errors.New("simulated engine failure")
		}
		io.WriteString(w, synthSummary)
		return nil
	}
	s, ts := newTestServer(t, Config{Workers: 1}, fn)

	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(`{"experiments":["table1"]}`))
	if err != nil {
		t.Fatal(err)
	}
	accepted, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var run struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(accepted, &run); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.met.runsFailed.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("run never failed")
		}
		time.Sleep(time.Millisecond)
	}

	code, status := get(t, ts.URL+"/v1/runs/"+run.ID)
	if code != http.StatusOK {
		t.Fatalf("status of failed run = %d, want 200 (not 404)", code)
	}
	if !bytes.Contains(status, []byte("simulated engine failure")) || !bytes.Contains(status, []byte(`"done"`)) {
		t.Fatalf("failed-run status missing error/state: %s", status)
	}
	code, stream := get(t, ts.URL+"/v1/runs/"+run.ID+"/stream")
	if code != http.StatusOK || !bytes.Contains(stream, []byte(`"progress"`)) || bytes.Contains(stream, []byte(`"summary"`)) {
		t.Fatalf("failed-run stream = %d %q, want the partial summary-less bytes", code, stream)
	}

	// A retry of the same tuple starts fresh, succeeds, and shadows the
	// tombstone with the cached result.
	code, body := get(t, ts.URL+"/v1/run?experiments=table1")
	if code != http.StatusOK || string(body) != synthSummary {
		t.Fatalf("retry = %d %q", code, body)
	}
	code, status = get(t, ts.URL+"/v1/runs/"+run.ID)
	if code != http.StatusOK || !bytes.Contains(status, []byte(`"cached"`)) {
		t.Fatalf("status after successful retry = %d %s, want cached", code, status)
	}
}

// TestEvictedRunRestreams: a successfully completed run stays addressable
// even when the cache cannot hold its bytes (here: caching disabled) — the
// status endpoint reports done/evicted instead of 404, and streaming the ID
// transparently re-runs the tuple, reproducing the identical bytes.
func TestEvictedRunRestreams(t *testing.T) {
	var calls atomic.Int64
	fn := func(ctx context.Context, spec RunSpec, w io.Writer) error {
		calls.Add(1)
		io.WriteString(w, synthSummary)
		return nil
	}
	s, ts := newTestServer(t, Config{Workers: 1, CacheBytes: -1}, fn)

	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(`{"experiments":["table1"]}`))
	if err != nil {
		t.Fatal(err)
	}
	accepted, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var run struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(accepted, &run); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.met.runsCompleted.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("run never completed")
		}
		time.Sleep(time.Millisecond)
	}

	code, status := get(t, ts.URL+"/v1/runs/"+run.ID)
	if code != http.StatusOK || !bytes.Contains(status, []byte(`"evicted"`)) || !bytes.Contains(status, []byte(`"done"`)) {
		t.Fatalf("status of evicted run = %d %s, want 200 done/evicted", code, status)
	}
	code, stream := get(t, ts.URL+"/v1/runs/"+run.ID+"/stream")
	if code != http.StatusOK || string(stream) != synthSummary {
		t.Fatalf("evicted stream = %d %q, want transparent re-run bytes", code, stream)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("run invocations = %d, want 2 (original + transparent re-run)", got)
	}
}

// TestAbandonedRerunKeepsPriorSuccess: once a tuple has a recorded success,
// a later abandoned attempt (its one-shot client walks away; caching is
// disabled so the attempt really re-runs) must not demote it — no failed
// tombstone is planted, status keeps reporting done/evicted, and streaming
// the ID still re-runs the tuple rather than serving partial failure bytes.
func TestAbandonedRerunKeepsPriorSuccess(t *testing.T) {
	secondStarted := make(chan struct{})
	var calls atomic.Int64
	fn := func(ctx context.Context, spec RunSpec, w io.Writer) error {
		// Call 2 is the attempt the client abandons; calls 1 and 3 (the
		// original success and the final transparent re-run) complete cleanly.
		if calls.Add(1) == 2 {
			close(secondStarted)
			<-ctx.Done() // hang until the lone client's disconnect cancels us
			return ctx.Err()
		}
		io.WriteString(w, synthSummary)
		return nil
	}
	s, ts := newTestServer(t, Config{Workers: 1, CacheBytes: -1}, fn)

	code, body := get(t, ts.URL+"/v1/run?experiments=table1")
	if code != http.StatusOK || string(body) != synthSummary {
		t.Fatalf("first run = %d %q", code, body)
	}
	spec, err := Canonicalize([]string{"table1"}, nil, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	id := spec.ID()
	// The run retires before its response completes: the done record exists
	// and the job has left the live table, so the next request re-runs
	// instead of attaching to it.
	if _, ok := s.completedRecord(id); !ok {
		t.Fatal("first run not in the completed index")
	}

	reqCtx, cancelReq := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(reqCtx, "GET", ts.URL+"/v1/run?experiments=table1", nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-secondStarted
	cancelReq() // the lone client walks away; the attempt is abandoned
	<-done
	// Wait until the abandoned attempt has fully retired from the live
	// table — only then do status/stream queries reflect its final outcome.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		_, live := s.live[id]
		s.mu.Unlock()
		if !live && s.met.runsFailed.Value() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned attempt never retired as failed")
		}
		time.Sleep(time.Millisecond)
	}

	s.mu.Lock()
	_, tombstoned := s.failed[id]
	s.mu.Unlock()
	if tombstoned {
		t.Fatal("abandoned re-run planted a failed tombstone over a recorded success")
	}
	code, status := get(t, ts.URL+"/v1/runs/"+id)
	if code != http.StatusOK || !bytes.Contains(status, []byte(`"done"`)) || !bytes.Contains(status, []byte(`"evicted"`)) {
		t.Fatalf("status after abandoned re-run = %d %s, want 200 done/evicted", code, status)
	}
	code, stream := get(t, ts.URL+"/v1/runs/"+id+"/stream")
	if code != http.StatusOK || string(stream) != synthSummary {
		t.Fatalf("stream after abandoned re-run = %d %q, want a clean re-run", code, stream)
	}
}

// TestGracefulDrain: Shutdown stops admission (503 on healthz and new
// runs), cancels in-flight work past the deadline, and leaves the cache
// intact for the next instance of the handler's lifetime.
func TestGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	blocked := func(ctx context.Context, spec RunSpec, w io.Writer) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s, ts := newTestServer(t, Config{Workers: 1}, blocked)
	defer close(release)

	if resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(`{"experiments":["table1"]}`)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("accept before drain = %d", resp.StatusCode)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("deadline-forced Shutdown = %v, want DeadlineExceeded", err)
	}

	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained = %d, want 503", code)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(`{"experiments":["table2"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("admission while drained = %d, want 503", resp.StatusCode)
	}
	// Second Shutdown is an idempotent no-op on an already-drained server.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if err := s.Shutdown(ctx2); err != nil {
		t.Fatalf("repeat Shutdown = %v", err)
	}
}

// TestMetricsEndpoint: the metrics registry serves as JSON and carries the
// core counters.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, nil)
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	for _, key := range []string{"runs_accepted", "runs_deduped", "runs_cache_hit", "runs_rejected", "runs_started", "queue_depth", "bytes_streamed", "cache_bytes", "cache_evictions", "workers"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("metrics missing %q: %s", key, body)
		}
	}
}

// TestCanonicalOrderServesSortedTuple: a request naming experiments out of
// order is served the canonical (sorted) tuple's stream — byte-identical to
// a fresh local run of the sorted selection — so set-equal requests are one
// cache entry, not many.
func TestCanonicalOrderServesSortedTuple(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sessions")
	}
	_, ts := newTestServer(t, Config{Workers: 2}, nil)
	want := freshStream(t, 9, "table1", "table2")
	code, got := get(t, ts.URL+"/v1/run?experiments=table2,table1&seed=9")
	if code != http.StatusOK {
		t.Fatalf("one-shot = %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served stream differs from fresh sorted-tuple run (%d vs %d bytes)", len(got), len(want))
	}
	// And the set-equal permutation is now a cache hit with identical bytes.
	resp, err := http.Get(ts.URL + "/v1/run?experiments=table1&scenarios=table2&seed=9")
	if err != nil {
		t.Fatal(err)
	}
	cached, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Qoe-Source") != "cache" {
		t.Fatalf("permuted repeat source = %q, want cache", resp.Header.Get("X-Qoe-Source"))
	}
	if !bytes.Equal(cached, want) {
		t.Fatal("cached permutation differs from fresh run")
	}
}

// TestConcurrentStreamingClients is the race-detector workout the CI race
// job leans on: 12 clients stream 3 distinct tuples concurrently — some
// attaching cold, some mid-run, some after completion (cache replay) — and
// every client of a tuple must receive that tuple's exact fresh-run bytes.
// One real simulating experiment (ext-0rtt) keeps bytes flowing while
// subscribers attach.
func TestConcurrentStreamingClients(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sessions concurrently")
	}
	_, ts := newTestServer(t, Config{Workers: 3}, nil)
	tuples := []struct {
		query string
		want  []byte
	}{
		{"experiments=table1&seed=1", freshStream(t, 1, "table1")},
		{"experiments=ext-0rtt&seed=2", freshStream(t, 2, "ext-0rtt")},
		{"experiments=table1,table2&seed=3", freshStream(t, 3, "table1", "table2")},
	}

	const clientsPerTuple = 4 // 12 streaming clients total
	var wg sync.WaitGroup
	errc := make(chan error, len(tuples)*clientsPerTuple)
	for ti, tu := range tuples {
		for c := 0; c < clientsPerTuple; c++ {
			wg.Add(1)
			go func(ti, c int, query string, want []byte) {
				defer wg.Done()
				// Stagger attach points: cold, mid-run, and post-completion.
				time.Sleep(time.Duration(c) * 5 * time.Millisecond)
				resp, err := http.Get(ts.URL + "/v1/run?" + query)
				if err != nil {
					errc <- err
					return
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(body, want) {
					errc <- fmt.Errorf("tuple %d client %d: stream diverged (%d vs %d bytes)", ti, c, len(body), len(want))
				}
			}(ti, c, tu.query, tu.want)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestResultCacheLRU: the byte budget holds under eviction, recency governs
// victim choice, and oversized entries are refused outright.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(100)
	mk := func(n int) []byte { return bytes.Repeat([]byte("x"), n) }
	c.add("a", "ka", mk(40))
	c.add("b", "kb", mk(40))
	if _, _, ok := c.get("a"); !ok { // promote a — b becomes the LRU victim
		t.Fatal("a missing")
	}
	c.add("c", "kc", mk(40))
	if _, _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite recent use")
	}
	if c.bytes() > 100 {
		t.Fatalf("cache size %d exceeds budget", c.bytes())
	}
	c.add("huge", "kh", mk(101))
	if _, _, ok := c.get("huge"); ok {
		t.Fatal("entry larger than the whole budget must not be cached")
	}
	// Re-adding an existing id refreshes recency without double-counting.
	c.add("a", "ka", mk(40))
	if got := c.entries(); got != 2 {
		t.Fatalf("entries = %d, want 2", got)
	}
}

// TestShardMinSchema: the worker endpoint's wire-schema floor. A request
// declaring a schema this build doesn't speak is rejected with the typed
// unsupported_schema envelope (which qoe.Client maps to
// *qoe.SchemaUnsupportedError); a request within the supported schema — an
// adaptive cell tuple included — passes validation and streams shard states.
func TestShardMinSchema(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, nil)

	over := fmt.Sprintf("%s/v1/shard?study=pop-ab&scale=quick&seed=1&lo=0&hi=1&min_schema=%d", ts.URL, qoe.SchemaVersion+1)
	code, body := get(t, over)
	if code != http.StatusBadRequest {
		t.Fatalf("over-schema shard = %d %s", code, body)
	}
	var envelope struct {
		Error           string `json:"error"`
		Code            string `json:"code"`
		RequiredSchema  int    `json:"required_schema"`
		SupportedSchema int    `json:"supported_schema"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("rejection not JSON: %v\n%s", err, body)
	}
	if envelope.Code != "unsupported_schema" || envelope.RequiredSchema != qoe.SchemaVersion+1 || envelope.SupportedSchema != qoe.SchemaVersion {
		t.Fatalf("rejection envelope = %+v", envelope)
	}

	// A supported floor on an adaptive cell streams shard states normally,
	// with every line echoing the requested cell.
	ok := fmt.Sprintf("%s/v1/shard?study=%s&scale=quick&seed=1&lo=0&hi=1&cell=2&min_schema=%d", ts.URL, qoe.StudyPopSweepAdaptive, qoe.SchemaVersion)
	code, body = get(t, ok)
	if code != http.StatusOK {
		t.Fatalf("adaptive shard = %d %s", code, body)
	}
	if !bytes.Contains(body, []byte(`"type":"shard_summary"`)) || !bytes.Contains(body, []byte(`"cell":2`)) {
		t.Fatalf("adaptive shard stream missing summary or cell echo:\n%s", body)
	}

	// A cell outside the study's grid is a validation error, not a panic.
	bad := fmt.Sprintf("%s/v1/shard?study=%s&scale=quick&seed=1&lo=0&hi=1&cell=99", ts.URL, qoe.StudyPopSweepAdaptive)
	if code, body := get(t, bad); code != http.StatusBadRequest {
		t.Fatalf("out-of-range cell = %d %s", code, body)
	}
}
