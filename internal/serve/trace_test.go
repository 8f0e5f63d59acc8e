package serve

// Tests of the run-lifecycle tracing surface: the /debug/trace/{id} endpoint,
// the Prometheus exposition of /metrics, the distributed-study trace stitch
// (including a worker killed mid-stream), and the allocation budget of
// telemetry on the cached hot path.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/telemetry"
	"repro/internal/testlog"
	"repro/pkg/qoe"
)

// newTraceWorker boots a real serve.Server as a fabric worker with its own
// tracer — the shape a `qoed -worker` process has — optionally wrapped with a
// fault injector in front of the HTTP surface.
func newTraceWorker(t *testing.T, wrap func(http.Handler) http.Handler) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2, Tracer: telemetry.New(telemetry.Config{})})
	t.Cleanup(s.Close)
	h := http.Handler(s)
	if wrap != nil {
		h = wrap(s)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return s, ts
}

// killFirstShards interposes on /v1/shard only: the first n shard responses
// are truncated at half their bytes — the wire signature of a worker dying
// mid-stream — while health checks, trace fetches, and later shard requests
// pass through untouched (so retries on the same worker can succeed).
func killFirstShards(n int64) func(http.Handler) http.Handler {
	var count int64
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/shard" || atomic.AddInt64(&count, 1) > n {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			b := rec.Body.Bytes()
			_, _ = w.Write(b[:len(b)/2])
		})
	}
}

// spanAttr reads one attribute off a span record.
func spanAttr(sp telemetry.SpanRecord, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// fetchClosedTrace fetches /debug/trace/{id} and asserts its root "run"
// span has closed: the root span ends before the run's summary is released,
// so a client holding the summary always finds a closed trace.
func fetchClosedTrace(t *testing.T, baseURL, id string) telemetry.TraceDump {
	t.Helper()
	code, body := get(t, baseURL+"/debug/trace/"+id)
	if code != http.StatusOK {
		t.Fatalf("trace for %s = %d %s", id, code, body)
	}
	var dump telemetry.TraceDump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("trace dump not JSON: %v\n%s", err, body)
	}
	for _, sp := range dump.Spans {
		if sp.Name == "run" && sp.Origin == "" && sp.DurNS > 0 {
			return dump
		}
	}
	t.Fatalf("trace for %s has no closed root span", id)
	return dump
}

// TestStitchedTraceSurvivesWorkerKill is the distributed acceptance scenario:
// a three-worker pop-ab study with one worker killed mid-stream must still
// produce ONE trace at the coordinator, under the run's deterministic ID,
// holding the admission span, per-sub-job dispatch spans — the retried range
// showing both the failed and the succeeding attempt, each naming its worker
// — and the workers' own simulate spans merged in under their origin URLs.
func TestStitchedTraceSurvivesWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-scale distributed population run; skipped in -short")
	}
	pool := make([]string, 3)
	for i := range pool {
		var wrap func(http.Handler) http.Handler
		if i == 0 {
			wrap = killFirstShards(2)
		}
		_, ts := newTraceWorker(t, wrap)
		pool[i] = ts.URL
	}
	fab, err := fabric.New(fabric.Config{Workers: pool, Backoff: time.Millisecond, Logger: testlog.New(t)})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 2, Tracer: telemetry.New(telemetry.Config{}), Fabric: fab}, nil)

	code, body := get(t, ts.URL+"/v1/run?experiments="+qoe.StudyPopAB+"&scale=quick&seed=1")
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("distributed run = %d (%d bytes)", code, len(body))
	}
	if !bytes.Contains(body, []byte(`"type":"summary"`)) {
		t.Fatal("distributed stream did not end in a summary event")
	}

	spec, err := Canonicalize([]string{qoe.StudyPopAB}, nil, "quick", 1)
	if err != nil {
		t.Fatal(err)
	}
	id := spec.ID()
	dump := fetchClosedTrace(t, ts.URL, id)
	if dump.TraceID != id {
		t.Errorf("trace_id = %q, want the canonical run ID %q", dump.TraceID, id)
	}

	poolSet := map[string]bool{}
	for _, u := range pool {
		poolSet[u] = true
	}
	var admit, reduce, mergedSimulate bool
	killedShards := map[string]bool{} // shard ranges whose dispatch died on worker 0
	origins := map[string]bool{}
	for _, sp := range dump.Spans {
		if sp.Origin != "" {
			origins[sp.Origin] = true
			if sp.Name == "simulate" {
				mergedSimulate = true
			}
			continue
		}
		switch sp.Name {
		case "admit":
			admit = true
		case "reduce":
			reduce = true
		case "dispatch":
			if sp.Err != "" && spanAttr(sp, "worker") == pool[0] {
				killedShards[spanAttr(sp, "shards")] = true
			}
		}
	}
	var retriedOK, successElsewhere bool
	for _, sp := range dump.Spans {
		if sp.Origin != "" || sp.Name != "dispatch" || sp.Err != "" {
			continue
		}
		if killedShards[spanAttr(sp, "shards")] {
			retriedOK = true
		}
		if w := spanAttr(sp, "worker"); w != "" && w != pool[0] {
			successElsewhere = true
		}
	}
	if !admit {
		t.Error("no admission span in the stitched trace")
	}
	if !reduce {
		t.Error("no reduce span in the stitched trace")
	}
	if len(killedShards) == 0 {
		t.Errorf("no failed dispatch span naming the killed worker %s", pool[0])
	}
	if !retriedOK {
		t.Error("no successful dispatch span for a shard range the killed worker dropped")
	}
	if !successElsewhere {
		t.Error("no successful dispatch span on a surviving worker")
	}
	if !mergedSimulate {
		t.Error("no worker-side simulate span merged into the coordinator trace")
	}
	if len(origins) == 0 {
		t.Error("no worker-origin spans stitched in")
	}
	for o := range origins {
		if !poolSet[o] {
			t.Errorf("merged span origin %q is not a pool worker", o)
		}
	}
}

// TestTraceEndpointUnknownID: an ID the ring has never seen is a 404 with the
// uniform error envelope, and a server without a tracer refuses outright.
func TestTraceEndpointUnknownID(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Tracer: telemetry.New(telemetry.Config{})}, nil)
	code, body := get(t, ts.URL+"/debug/trace/deadbeef")
	if code != http.StatusNotFound || !bytes.Contains(body, []byte(`"error"`)) {
		t.Fatalf("unknown trace = %d %s", code, body)
	}
	_, untraced := newTestServer(t, Config{Workers: 1}, nil)
	if code, _ := get(t, untraced.URL+"/debug/trace/deadbeef"); code != http.StatusNotFound {
		t.Fatalf("trace endpoint without a tracer = %d, want 404", code)
	}
}

// TestMetricsPromExposition: ?format=prom renders the metrics registry as
// Prometheus text exposition — namespaced counters, the per-class latency
// summary, and the build-info gauge — while the default rendering stays the
// JSON object the existing harnesses parse.
func TestMetricsPromExposition(t *testing.T) {
	synthetic := func(ctx context.Context, spec RunSpec, w io.Writer) error {
		_, err := io.WriteString(w, `{"schema_version":1,"type":"summary"}`+"\n")
		return err
	}
	_, ts := newTestServer(t, Config{Workers: 1, Tracer: telemetry.New(telemetry.Config{})}, synthetic)
	// One served run, so the latency summary has a class with observations.
	if code, _ := get(t, ts.URL+"/v1/run?experiments=table1&scale=quick&seed=1"); code != http.StatusOK {
		t.Fatalf("warm run = %d", code)
	}
	code, body := get(t, ts.URL+"/metrics?format=prom")
	if code != http.StatusOK {
		t.Fatalf("prom metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE qoed_runs_started",
		"qoed_runs_started 1",
		"qoed_uptime_seconds",
		"# TYPE qoed_request_latency_seconds summary",
		`qoed_request_latency_seconds{class="cold",quantile=`,
		"# TYPE qoed_build_info gauge",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("prom exposition missing %q\n%s", want, body)
		}
	}
	// The JSON rendering still answers, with the observability fields present.
	code, body = get(t, ts.URL+"/metrics")
	var m map[string]json.RawMessage
	if code != http.StatusOK || json.Unmarshal(body, &m) != nil {
		t.Fatalf("json metrics = %d %s", code, body)
	}
	for _, key := range []string{"uptime_seconds", "build_info", "latency", "traces_retained"} {
		if _, ok := m[key]; !ok {
			t.Errorf("/metrics missing %q", key)
		}
	}
}

// TestHealthzReportsBuildAndUptime: the liveness endpoint identifies the
// binary (version, revision, Go toolchain) and how long it has been up.
func TestHealthzReportsBuildAndUptime(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, nil)
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	var h struct {
		Status        string   `json:"status"`
		Version       string   `json:"version"`
		GoVersion     string   `json:"go"`
		UptimeSeconds *float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz not JSON: %v\n%s", err, body)
	}
	if h.Status != "ok" || h.Version == "" || h.GoVersion == "" || h.UptimeSeconds == nil || *h.UptimeSeconds < 0 {
		t.Fatalf("healthz body = %s", body)
	}
}

// cachedPathAllocs measures allocations per request on the mem-cache-hit
// path, served in-process (no HTTP client noise) with the given tracer.
func cachedPathAllocs(t *testing.T, tr *telemetry.Tracer) float64 {
	t.Helper()
	payload := bytes.Repeat([]byte(`{"schema_version":1,"type":"row","experiment":"table1","index":0,"data":{}}`+"\n"), 32)
	s := New(Config{Workers: 1, Tracer: tr})
	t.Cleanup(s.Close)
	s.runFn = func(ctx context.Context, spec RunSpec, w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}
	spec, err := Canonicalize([]string{"table1"}, nil, "quick", 1)
	if err != nil {
		t.Fatal(err)
	}
	const target = "/v1/run?experiments=table1&scale=quick&seed=1"
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("warm run = %d %s", rec.Code, rec.Body.Bytes())
	}
	// The run is published before its response completes, so every
	// measured request is a pure cache hit.
	if !s.cache.has(spec.ID()) {
		t.Fatal("warm run not published to the cache")
	}
	allocs := testing.AllocsPerRun(200, func() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		if w.Code != http.StatusOK {
			t.Fatal("cached replay failed")
		}
	})
	if started := s.met.runsStarted.Value(); started != 1 {
		t.Fatalf("measured path simulated %d times, want 1 (warmup only)", started)
	}
	return allocs
}

// TestTelemetryAllocsCachedPath is the allocation regression gate of the
// telemetry tentpole: tracing plus latency observation on the mem-cache-hit
// serving path may cost at most 2 allocations per request over the untraced
// baseline (spans are pooled; admission outcomes are pre-interned).
func TestTelemetryAllocsCachedPath(t *testing.T) {
	base := cachedPathAllocs(t, nil)
	traced := cachedPathAllocs(t, telemetry.New(telemetry.Config{}))
	t.Logf("cached path allocs/op: untraced %.1f, traced %.1f", base, traced)
	if delta := traced - base; delta > 2 {
		t.Fatalf("telemetry costs %.1f allocs/op on the cached path (untraced %.1f, traced %.1f), budget is 2", delta, base, traced)
	}
}
