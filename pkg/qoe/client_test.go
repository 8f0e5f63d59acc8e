package qoe_test

// Client ↔ server integration: qoe.Client against a real internal/serve
// engine (the same wiring cmd/qoed deploys), plus wire-level error handling
// against stub handlers. Lives in the external test package so the round
// trip crosses the same package boundary real consumers do.

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/pkg/qoe"
)

// newServedClient boots the serving engine and returns a client for it.
func newServedClient(t *testing.T) *qoe.Client {
	t.Helper()
	s := serve.New(serve.Config{Workers: 2})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return qoe.NewClient(ts.URL, nil)
}

func TestClientCatalog(t *testing.T) {
	c := newServedClient(t)
	cat, err := c.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cat.SchemaVersion != qoe.SchemaVersion {
		t.Fatalf("catalog schema %d", cat.SchemaVersion)
	}
	if len(cat.Experiments) != len(qoe.ExperimentNames()) || len(cat.Scales) != 3 {
		t.Fatalf("catalog incomplete: %d experiments, %v scales", len(cat.Experiments), cat.Scales)
	}
	if !c.Healthy(context.Background()) {
		t.Fatal("served daemon reports unhealthy")
	}
	// The catalog marks exactly the sequential-stopping studies adaptive, so
	// a coordinator can tell which tuples need schema-aware workers.
	adaptive := map[string]bool{}
	for _, e := range cat.Experiments {
		adaptive[e.Name] = e.Adaptive
	}
	if !adaptive[qoe.StudyPopSweepAdaptive] {
		t.Fatalf("catalog does not mark %s adaptive", qoe.StudyPopSweepAdaptive)
	}
	if adaptive["pop-sweep"] || adaptive["table1"] {
		t.Fatalf("catalog marks non-adaptive experiments adaptive: %v", adaptive)
	}
}

// TestClientSchemaUnsupported: a worker running an older build answers an
// adaptive shard tuple with the typed unsupported_schema envelope, and the
// client surfaces it as *SchemaUnsupportedError — permanent for that
// worker, not a retryable backpressure signal.
func TestClientSchemaUnsupported(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.URL.Query().Get("min_schema"); got != "1" {
			t.Errorf("adaptive shard request sent min_schema=%q, want 1", got)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"serve: request requires schema_version 1, this worker speaks 0","code":"unsupported_schema","required_schema":1,"supported_schema":0}`))
	}))
	defer stub.Close()
	c := qoe.NewClient(stub.URL, nil)
	_, err := c.RunShards(context.Background(), qoe.ShardRequest{
		Study: qoe.StudyPopSweepAdaptive,
		Scale: qoe.ScaleQuick,
		Seed:  1,
		Range: qoe.ShardRange{Lo: 0, Hi: 2},
		Cell:  3,
	})
	var sue *qoe.SchemaUnsupportedError
	if !errors.As(err, &sue) {
		t.Fatalf("RunShards = %v, want *SchemaUnsupportedError", err)
	}
	if sue.Required != 1 || sue.Supported != 0 {
		t.Fatalf("schema error = %+v", sue)
	}
	var re *qoe.RetryableError
	if errors.As(err, &re) {
		t.Fatal("unsupported_schema must not be retryable")
	}
}

// TestClientRunMatchesLocalSession: the remote hot path end to end — a
// client Run's raw bytes equal the pinned golden and a local Session's
// stream, cold (live broadcast) and warm (cache replay) alike; and the
// decoded summary matches the local run's.
func TestClientRunMatchesLocalSession(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sessions")
	}
	c := newServedClient(t)
	req := qoe.RunRequest{Experiments: []string{"table1"}, Scale: qoe.ScaleQuick, Seed: 1}

	golden, err := os.ReadFile("../../testdata/golden/table1.stream.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := c.RunBytes(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, golden) {
		t.Fatalf("remote run differs from golden (%d vs %d bytes)", len(cold), len(golden))
	}
	warm, err := c.RunBytes(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warm, golden) {
		t.Fatal("cached remote run differs from golden")
	}

	// The local reference must deliver rows to a real sink: a discard sink
	// is rowless, and SummaryEvent.Rows counts rows actually delivered.
	sess, err := qoe.NewSession(qoe.WithScenarios("table1"), qoe.WithSeed(1), qoe.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	var localBuf bytes.Buffer
	local, err := sess.Run(context.Background(), qoe.StreamSink(&localBuf))
	if err != nil {
		t.Fatal(err)
	}
	remote, err := c.Run(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if remote != local.SummaryEvent {
		t.Fatalf("remote summary %+v != local %+v", remote, local.SummaryEvent)
	}
}

// TestClientStartStreamLifecycle: the durable flow through the client —
// StartRun, Status until done, StreamRun delivering the full stream.
func TestClientStartStreamLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a session")
	}
	c := newServedClient(t)
	ctx := context.Background()
	status, err := c.StartRun(ctx, qoe.RunRequest{Experiments: []string{"table2"}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if status.ID == "" || status.Source == "" {
		t.Fatalf("start status %+v", status)
	}
	var buf bytes.Buffer
	summary, err := c.StreamRun(ctx, status.ID, qoe.StreamSink(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if summary.Experiments != 1 || buf.Len() == 0 {
		t.Fatalf("streamed summary %+v, %d bytes", summary, buf.Len())
	}
	final, err := c.Status(ctx, status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != "cached" {
		t.Fatalf("final status %q, want cached", final.Status)
	}
}

// TestClientRetryableError: 429 and 503 responses surface as
// *RetryableError with the server's Retry-After hint; other failures do not.
func TestClientRetryableError(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"serve: run queue is full","retry_after_seconds":7}`))
	}))
	defer stub.Close()
	c := qoe.NewClient(stub.URL, nil)
	_, err := c.Run(context.Background(), qoe.RunRequest{}, nil)
	var re *qoe.RetryableError
	if !errors.As(err, &re) {
		t.Fatalf("Run = %v, want *RetryableError", err)
	}
	if re.RetryAfter != 7*time.Second || re.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("retryable = %+v", re)
	}

	notFound := httptest.NewServer(http.NotFoundHandler())
	defer notFound.Close()
	if _, err := qoe.NewClient(notFound.URL, nil).Catalog(context.Background()); err == nil || errors.As(err, &re) {
		t.Fatalf("404 catalog = %v, want plain error", err)
	}
}

// TestClientSeedVerbatim: the client transmits Seed exactly as given —
// seed 0 included — so every tuple a local Session can run is reachable
// remotely.
func TestClientSeedVerbatim(t *testing.T) {
	var gotSeed string
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotSeed = r.URL.Query().Get("seed")
		w.Write([]byte(`{"schema_version":1,"type":"summary","experiments":0,"rows":0,"conditions":0,"cache_records":0,"cache_hits":0}` + "\n"))
	}))
	defer stub.Close()
	c := qoe.NewClient(stub.URL, nil)
	if _, err := c.Run(context.Background(), qoe.RunRequest{Experiments: []string{"table1"}, Seed: 0}, nil); err != nil {
		t.Fatal(err)
	}
	if gotSeed != "0" {
		t.Fatalf("seed transmitted as %q, want verbatim 0", gotSeed)
	}
}

// TestClientTruncatedRun: a server that dies mid-stream yields
// ErrTruncatedStream, not a silent partial success.
func TestClientTruncatedRun(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write([]byte(`{"schema_version":1,"type":"progress","stage":"experiment","completed":0,"total":1}` + "\n"))
		// ...and no summary: the connection just ends.
	}))
	defer stub.Close()
	c := qoe.NewClient(stub.URL, nil)
	if _, err := c.Run(context.Background(), qoe.RunRequest{}, nil); !errors.Is(err, qoe.ErrTruncatedStream) {
		t.Fatalf("truncated run = %v, want ErrTruncatedStream", err)
	}
}

// TestClientProbeAndFetchWarmRun: the peer-fill protocol end to end against
// a real daemon — HEAD probe answers from finished tiers only, the fetch
// returns the exact warm bytes, and a cold ID is ErrRunNotWarm, not an
// admission.
func TestClientProbeAndFetchWarmRun(t *testing.T) {
	s := serve.New(serve.Config{Workers: 2})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	c := qoe.NewClient(ts.URL, nil)
	req := qoe.RunRequest{Experiments: []string{"table1"}, Scale: qoe.ScaleQuick, Seed: 1}

	spec, err := serve.Canonicalize(req.Experiments, nil, string(req.Scale), req.Seed)
	if err != nil {
		t.Fatal(err)
	}
	id := spec.ID()

	// Cold daemon: the probe is a clean miss and the fetch a typed error —
	// and neither may have admitted a run.
	if warm, err := c.ProbeRun(context.Background(), id); err != nil || warm {
		t.Fatalf("cold probe = %v, %v; want false, nil", warm, err)
	}
	if _, err := c.FetchWarmRun(context.Background(), id); !errors.Is(err, qoe.ErrRunNotWarm) {
		t.Fatalf("cold fetch = %v, want ErrRunNotWarm", err)
	}

	warmBytes, err := c.RunBytes(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	if warm, err := c.ProbeRun(context.Background(), id); err != nil || !warm {
		t.Fatalf("warm probe = %v, %v; want true, nil", warm, err)
	}
	fetched, err := c.FetchWarmRun(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fetched, warmBytes) {
		t.Fatal("FetchWarmRun bytes differ from the run's own stream")
	}

	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.RunsStarted != 1 {
		t.Fatalf("runs_started = %d, want 1 (probes and fetches must not simulate)", m.RunsStarted)
	}
}

// TestClientFetchWarmRunValidates: a peer answering 200 with a garbled or
// summary-less stream is an error — corrupt bytes never enter the local
// store.
func TestClientFetchWarmRunValidates(t *testing.T) {
	garbled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not ndjson at all\n"))
	}))
	defer garbled.Close()
	if _, err := qoe.NewClient(garbled.URL, nil).FetchWarmRun(context.Background(), "deadbeef"); err == nil || errors.Is(err, qoe.ErrRunNotWarm) {
		t.Fatalf("garbled fetch = %v, want a decode error", err)
	}

	truncated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"schema_version":1,"type":"progress","stage":"experiment","completed":0,"total":1}` + "\n"))
	}))
	defer truncated.Close()
	if _, err := qoe.NewClient(truncated.URL, nil).FetchWarmRun(context.Background(), "deadbeef"); !errors.Is(err, qoe.ErrTruncatedStream) {
		t.Fatalf("truncated fetch = %v, want ErrTruncatedStream", err)
	}
}

// TestClientMetricsTypedDecode: the typed metrics slice tracks the daemon's
// counter map across the tier split.
func TestClientMetricsTypedDecode(t *testing.T) {
	dir := t.TempDir()
	s := serve.New(serve.Config{Workers: 2, StoreDir: dir})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	c := qoe.NewClient(ts.URL, nil)
	req := qoe.RunRequest{Experiments: []string{"table1"}, Scale: qoe.ScaleQuick, Seed: 1}

	if _, err := c.RunBytes(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// The summary is released only after the run is published, so both
	// tiers hold it now and the second request is a mem hit, not a dedup.
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.StoreEntries != 1 || m.CacheEntries != 1 {
		t.Fatalf("tiers not published: %+v", m)
	}
	if _, err := c.RunBytes(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	m, err = c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.RunsStarted != 1 || m.RunsAccepted != 1 {
		t.Fatalf("started/accepted = %d/%d, want 1/1", m.RunsStarted, m.RunsAccepted)
	}
	if m.CacheHitsMem != 1 || m.RunsCacheHit != 1 {
		t.Fatalf("mem hits = %d (admission hits %d), want 1", m.CacheHitsMem, m.RunsCacheHit)
	}
	if m.CacheHitRate <= 0 || m.CacheHitRate > 1 {
		t.Fatalf("cache_hit_rate = %v, want in (0, 1]", m.CacheHitRate)
	}
	if m.StoreEntries != 1 || m.StoreBytes <= 0 || m.StoreQuarantined != 0 {
		t.Fatalf("store gauges = %d entries / %d bytes / %d quarantined",
			m.StoreEntries, m.StoreBytes, m.StoreQuarantined)
	}
	if m.BytesStreamed <= 0 || m.CacheBytes <= 0 || m.CacheEntries != 1 {
		t.Fatalf("bytes_streamed=%d cache_bytes=%d cache_entries=%d",
			m.BytesStreamed, m.CacheBytes, m.CacheEntries)
	}
}
