package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/qoe"
)

// synthStream is a minimal multi-line schema_version 1 stream for stub runs —
// a progress line plus the summary, so replay identity is asserted over more
// than one NDJSON record.
const synthStream = `{"schema_version":1,"type":"progress","stage":"experiment","completed":0,"total":1}` + "\n" + synthSummary

// countingRun returns a stub runFunc that counts invocations and writes
// synthStream.
func countingRun(calls *atomic.Int64) runFunc {
	return func(ctx context.Context, spec RunSpec, w io.Writer) error {
		calls.Add(1)
		io.WriteString(w, synthStream)
		return nil
	}
}

// head issues a HEAD request and returns status code and X-Qoe-Source.
func head(t *testing.T, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodHead, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Qoe-Source")
}

func mustSpec(t *testing.T, seed int64, experiments ...string) RunSpec {
	t.Helper()
	spec, err := Canonicalize(experiments, nil, "", seed)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestDiskSpillRestart is the durability contract end to end: a daemon
// computes a run, a SECOND daemon booted on the same store directory serves
// the identical bytes from disk with zero simulation, and the disk hit
// promotes back into RAM.
func TestDiskSpillRestart(t *testing.T) {
	dir := t.TempDir()

	// First life: real engine, real bytes, write-through to the store.
	s1, ts1 := newTestServer(t, Config{Workers: 1, StoreDir: dir}, nil)
	code, body1 := get(t, ts1.URL+"/v1/run?experiments=table1&scale=quick&seed=1")
	if code != http.StatusOK {
		t.Fatalf("first life run = %d", code)
	}
	if golden := goldenStream(t); !bytes.Equal(body1, golden) {
		t.Fatal("first life stream does not match the pinned golden")
	}
	s1.Close()
	ts1.Close()

	// Second life on the same directory: any simulation is a test failure.
	var calls atomic.Int64
	s2, ts2 := newTestServer(t, Config{Workers: 1, StoreDir: dir}, countingRun(&calls))
	id := mustSpec(t, 1, "table1").ID()

	// The probe protocol sees the entry before anything is served.
	if code, src := head(t, ts2.URL+"/v1/runs/"+id+"/stream"); code != http.StatusOK || src != "disk" {
		t.Fatalf("warm probe after restart = %d source %q, want 200 disk", code, src)
	}

	resp, err := http.Get(ts2.URL + "/v1/run?experiments=table1&scale=quick&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	body2, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second life run = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Qoe-Source"); got != "disk" {
		t.Fatalf("X-Qoe-Source = %q, want disk", got)
	}
	if !bytes.Equal(body2, body1) {
		t.Fatal("restart replay is not byte-identical to the original stream")
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("restarted daemon simulated %d times, want 0", n)
	}
	if got := s2.met.runsStarted.Value(); got != 0 {
		t.Fatalf("runs_started = %d after restart, want 0", got)
	}
	if got := s2.met.cacheHitsDisk.Value(); got != 1 {
		t.Fatalf("cache_hits_disk = %d, want 1", got)
	}

	// The disk hit promoted into RAM: the next request is a mem hit.
	resp2, err := http.Get(ts2.URL + "/v1/run?experiments=table1&scale=quick&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	body3, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Qoe-Source"); got != "cache" {
		t.Fatalf("post-promotion X-Qoe-Source = %q, want cache", got)
	}
	if !bytes.Equal(body3, body1) {
		t.Fatal("promoted replay is not byte-identical")
	}
	if got := s2.met.cacheHitsMem.Value(); got != 1 {
		t.Fatalf("cache_hits_mem = %d, want 1", got)
	}
}

// TestEvictionDemotesToDisk: an entry pushed out of the byte-bounded RAM
// tier stays servable from disk — the request after eviction reports the
// disk tier and runs nothing.
func TestEvictionDemotesToDisk(t *testing.T) {
	var calls atomic.Int64
	cfg := Config{
		Workers:    1,
		StoreDir:   t.TempDir(),
		CacheBytes: int64(len(synthStream)), // exactly one resident entry
	}
	s, ts := newTestServer(t, cfg, countingRun(&calls))

	if code, _ := get(t, ts.URL+"/v1/run?experiments=table1&seed=1"); code != http.StatusOK {
		t.Fatalf("seed 1 = %d", code)
	}
	if code, _ := get(t, ts.URL+"/v1/run?experiments=table1&seed=2"); code != http.StatusOK {
		t.Fatalf("seed 2 = %d", code)
	}
	if n := s.cache.entries(); n != 1 {
		t.Fatalf("resident entries = %d, want 1 (budget holds one stream)", n)
	}
	if n := s.cache.evicted(); n != 1 {
		t.Fatalf("evictions = %d, want 1", n)
	}

	// Seed 1 was evicted from RAM; it must come back from disk, not a re-run.
	resp, err := http.Get(ts.URL + "/v1/run?experiments=table1&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Qoe-Source"); got != "disk" {
		t.Fatalf("post-eviction X-Qoe-Source = %q, want disk", got)
	}
	if string(body) != synthStream {
		t.Fatal("post-eviction replay is not byte-identical")
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("run invocations = %d, want 2 (eviction must not cost a re-run)", n)
	}
}

// TestCacheAddReturnsEvictees pins the demotion seam directly: add past the
// budget hands back exactly the pushed-out entries.
func TestCacheAddReturnsEvictees(t *testing.T) {
	c := newResultCache(10)
	if ev := c.add("a", "ka", []byte("12345")); len(ev) != 0 {
		t.Fatalf("first add evicted %d entries", len(ev))
	}
	if ev := c.add("b", "kb", []byte("67890")); len(ev) != 0 {
		t.Fatalf("second add evicted %d entries", len(ev))
	}
	ev := c.add("c", "kc", []byte("xyz"))
	if len(ev) != 1 || ev[0].id != "a" {
		t.Fatalf("third add evicted %v, want exactly [a]", ev)
	}
	if _, _, ok := c.get("b"); !ok {
		t.Fatal("entry b should have survived")
	}
}

// TestCorruptSpillQuarantined: a corrupted spill file is detected, moved
// aside, and transparently re-simulated — garbage is never streamed.
func TestCorruptSpillQuarantined(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	s, ts := newTestServer(t, Config{Workers: 1, StoreDir: dir}, countingRun(&calls))

	code, body1 := get(t, ts.URL+"/v1/run?experiments=table1&seed=1")
	if code != http.StatusOK {
		t.Fatalf("first run = %d", code)
	}
	id := mustSpec(t, 1, "table1").ID()
	path := filepath.Join(dir, id+".qoes")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("spill entry not written through: %v", err)
	}
	raw[len(raw)-2] ^= 0x40 // flip a payload bit
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s.cache.remove(id) // force the next request onto the disk tier

	resp, err := http.Get(ts.URL + "/v1/run?experiments=table1&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-corruption run = %d", resp.StatusCode)
	}
	if !bytes.Equal(body2, body1) {
		t.Fatal("post-corruption stream differs — corrupt bytes may have leaked")
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("run invocations = %d, want 2 (corrupt entry must re-simulate)", n)
	}
	if q := s.store.Quarantined(); q != 1 {
		t.Fatalf("quarantined = %d, want 1", q)
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	// The re-run wrote the entry back; the store serves it again.
	if !s.store.Has(id) {
		t.Fatal("store entry not restored by the re-run")
	}
}

// TestPeerCacheFill: a cold daemon fills a miss from a warm peer's finished
// tiers — byte-identical stream, zero simulations, one probe shared by all
// concurrent waiters.
func TestPeerCacheFill(t *testing.T) {
	// Warm peer with one finished tuple.
	var warmCalls atomic.Int64
	_, warmTS := newTestServer(t, Config{Workers: 1}, countingRun(&warmCalls))
	if code, _ := get(t, warmTS.URL+"/v1/run?experiments=table1&seed=1"); code != http.StatusOK {
		t.Fatal("warming the peer failed")
	}

	// Count fill requests and gate them, so every waiter attaches before the
	// single probe resolves.
	var probes atomic.Int64
	release := make(chan struct{})
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(qoe.PeerFillHeader) != "" {
			probes.Add(1)
			<-release
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, warmTS.URL+r.URL.String(), nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, v := range resp.Header {
			w.Header()[k] = v
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(proxy.Close)

	// Cold daemon: simulating anything is a test failure.
	cold, coldTS := newTestServer(t, Config{Workers: 1, Peers: []string{proxy.URL}}, func(ctx context.Context, spec RunSpec, w io.Writer) error {
		t.Error("cold daemon simulated despite a warm peer")
		io.WriteString(w, synthStream)
		return nil
	})

	const waiters = 4
	var wg sync.WaitGroup
	bodies := make([][]byte, waiters)
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := get(t, coldTS.URL+"/v1/run?experiments=table1&seed=1")
			if code != http.StatusOK {
				t.Errorf("waiter %d = %d", i, code)
			}
			bodies[i] = body
		}(i)
	}
	// All but the creator deduplicate onto the one live job; then let the
	// single gated probe finish.
	deadline := time.Now().Add(5 * time.Second)
	for cold.met.runsDeduped.Value() != waiters-1 {
		if time.Now().After(deadline) {
			t.Fatalf("deduped = %d, want %d", cold.met.runsDeduped.Value(), waiters-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i, body := range bodies {
		if string(body) != synthStream {
			t.Fatalf("waiter %d stream not byte-identical: %q", i, body)
		}
	}
	if n := probes.Load(); n != 1 {
		t.Fatalf("peer fill probes = %d, want 1 (singleflight must cover all waiters)", n)
	}
	if got := cold.met.cacheHitsPeer.Value(); got != 1 {
		t.Fatalf("cache_hits_peer = %d, want 1", got)
	}
	if got := cold.met.runsStarted.Value(); got != 0 {
		t.Fatalf("runs_started = %d on the cold daemon, want 0", got)
	}
	if n := warmCalls.Load(); n != 1 {
		t.Fatalf("warm peer ran %d times, want 1 (fills must never cascade)", n)
	}

	// The fill landed in the local RAM tier: the next request never leaves
	// the cold daemon.
	resp, err := http.Get(coldTS.URL + "/v1/run?experiments=table1&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Qoe-Source"); got != "cache" {
		t.Fatalf("post-fill X-Qoe-Source = %q, want cache", got)
	}
}

// TestPeerFillFallsBackToSimulation: cold peers answer 404 from their
// finished tiers without admitting anything, and the miss falls through to
// a local simulation.
func TestPeerFillFallsBackToSimulation(t *testing.T) {
	peer, peerTS := newTestServer(t, Config{Workers: 1}, func(ctx context.Context, spec RunSpec, w io.Writer) error {
		t.Error("peer probe triggered a simulation on the peer")
		return nil
	})
	var calls atomic.Int64
	s, ts := newTestServer(t, Config{Workers: 1, Peers: []string{peerTS.URL}}, countingRun(&calls))

	code, body := get(t, ts.URL+"/v1/run?experiments=table1&seed=1")
	if code != http.StatusOK || string(body) != synthStream {
		t.Fatalf("fallback run = %d %q", code, body)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("local simulations = %d, want 1", n)
	}
	if got := s.met.cacheHitsPeer.Value(); got != 0 {
		t.Fatalf("cache_hits_peer = %d, want 0", got)
	}
	if got := peer.met.runsAccepted.Value(); got != 0 {
		t.Fatalf("peer runs_accepted = %d, want 0 (probes must never admit)", got)
	}
}

// TestWarmProbeOnlyServesFinishedTiers: the probe protocol answers 404 for
// live runs and unknown IDs — it reports warm bytes, it never waits for or
// starts work.
func TestWarmProbeOnlyServesFinishedTiers(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func(ctx context.Context, spec RunSpec, w io.Writer) error {
		close(started)
		<-release
		io.WriteString(w, synthStream)
		return nil
	}
	s, ts := newTestServer(t, Config{Workers: 1}, fn)
	id := mustSpec(t, 1, "table1").ID()

	done := make(chan struct{})
	go func() {
		defer close(done)
		get(t, ts.URL+"/v1/run?experiments=table1&seed=1")
	}()
	<-started
	if code, _ := head(t, ts.URL+"/v1/runs/"+id+"/stream"); code != http.StatusNotFound {
		t.Fatalf("probe of a LIVE run = %d, want 404", code)
	}
	close(release)
	<-done

	if code, src := head(t, ts.URL+"/v1/runs/"+id+"/stream"); code != http.StatusOK || src != "cache" {
		t.Fatalf("probe of a finished run = %d source %q, want 200 cache", code, src)
	}

	// A peer-fill GET of an unknown ID is a plain 404: no admission, no
	// transparent re-run.
	accepted := s.met.runsAccepted.Value()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/runs/ffffffffffffffffffffffffffffffff/stream", nil)
	req.Header.Set(qoe.PeerFillHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("peer-fill GET of unknown run = %d, want 404", resp.StatusCode)
	}
	if got := s.met.runsAccepted.Value(); got != accepted {
		t.Fatal("a warm probe admitted a run")
	}
}

// TestPrewarmWalk: the grid walk computes cold tuples through normal
// admission, then reports every one of them already warm on a second pass.
func TestPrewarmWalk(t *testing.T) {
	var calls atomic.Int64
	s, _ := newTestServer(t, Config{Workers: 1}, countingRun(&calls))

	grid := PrewarmGrid{Tuples: []PrewarmTuple{
		{Experiments: []string{"table1"}, Seeds: []int64{1, 2}},
		{Experiments: []string{"table1"}, Seeds: []int64{1}}, // duplicate tuple collapses
	}}
	specs, err := grid.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("specs = %d, want 2 (deduplicated)", len(specs))
	}

	stats := s.Prewarm(context.Background(), specs)
	if stats.Warmed != 2 || stats.AlreadyWarm != 0 || stats.Failed != 0 {
		t.Fatalf("first walk = %+v, want 2 warmed", stats)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("first walk ran %d simulations, want 2", n)
	}

	stats = s.Prewarm(context.Background(), specs)
	if stats.Warmed != 0 || stats.AlreadyWarm != 2 {
		t.Fatalf("second walk = %+v, want 2 already warm", stats)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("second walk re-ran warm tuples (%d simulations total)", n)
	}
	if s.met.prewarmWarmed.Value() != 2 || s.met.prewarmAlready.Value() != 2 {
		t.Fatalf("prewarm counters = %d/%d, want 2/2",
			s.met.prewarmWarmed.Value(), s.met.prewarmAlready.Value())
	}
}

// TestPrewarmAlreadyWarmFromDisk: a rebooted daemon's prewarm walk finds the
// whole grid on disk and runs nothing.
func TestPrewarmAlreadyWarmFromDisk(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	s1, _ := newTestServer(t, Config{Workers: 1, StoreDir: dir}, countingRun(&calls))
	specs := []RunSpec{mustSpec(t, 1, "table1"), mustSpec(t, 2, "table1")}
	if stats := s1.Prewarm(context.Background(), specs); stats.Warmed != 2 {
		t.Fatalf("seed walk = %+v", stats)
	}
	s1.Close()

	s2, _ := newTestServer(t, Config{Workers: 1, StoreDir: dir}, func(ctx context.Context, spec RunSpec, w io.Writer) error {
		t.Error("rebooted prewarm simulated a tuple that is on disk")
		return nil
	})
	if stats := s2.Prewarm(context.Background(), specs); stats.AlreadyWarm != 2 || stats.Warmed != 0 {
		t.Fatalf("reboot walk = %+v, want 2 already warm", stats)
	}
}

// TestDefaultPrewarmGridCoversCatalog: the default hot set is one tuple per
// registered experiment.
func TestDefaultPrewarmGridCoversCatalog(t *testing.T) {
	specs, err := DefaultPrewarmGrid().Specs()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(qoe.Experiments()); len(specs) != want {
		t.Fatalf("default grid = %d specs, want %d (one per experiment)", len(specs), want)
	}
	for _, spec := range specs {
		if spec.Scale != qoe.ScaleQuick || spec.Seed != 1 {
			t.Fatalf("default grid tuple %s is not quick/seed-1", spec.Key())
		}
	}
}

// TestLoadPrewarmGrid round-trips the JSON grid format and rejects the
// failure modes a boot should catch.
func TestLoadPrewarmGrid(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grid.json")
	grid := PrewarmGrid{Tuples: []PrewarmTuple{
		{Experiments: []string{"table1"}, Scales: []string{"quick"}, Seeds: []int64{1, 7}},
	}}
	raw, err := json.Marshal(grid)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPrewarmGrid(path)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := loaded.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("loaded grid = %d specs, want 2", len(specs))
	}

	if _, err := LoadPrewarmGrid(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing grid file did not error")
	}
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`{"tuples": []}`), 0o644)
	if _, err := LoadPrewarmGrid(empty); err == nil {
		t.Fatal("empty grid did not error")
	}
	bad := PrewarmGrid{Tuples: []PrewarmTuple{{Experiments: []string{"no-such-experiment"}}}}
	if _, err := bad.Specs(); err == nil {
		t.Fatal("unknown experiment in grid did not error")
	}
}

// TestMetricsExposeTierCounters: the split hit counters and the durable-tier
// gauges are wired into /metrics with the names the fleet scrapes.
func TestMetricsExposeTierCounters(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	s, ts := newTestServer(t, Config{Workers: 1, StoreDir: dir}, countingRun(&calls))

	get(t, ts.URL+"/v1/run?experiments=table1&seed=1") // simulate
	get(t, ts.URL+"/v1/run?experiments=table1&seed=1") // mem hit
	id := mustSpec(t, 1, "table1").ID()
	s.cache.remove(id)
	get(t, ts.URL+"/v1/run?experiments=table1&seed=1") // disk hit

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	want := map[string]string{
		"cache_hits_mem":    "1",
		"cache_hits_disk":   "1",
		"cache_hits_peer":   "0",
		"runs_started":      "1",
		"store_entries":     "1",
		"store_quarantined": "0",
	}
	for name, val := range want {
		got, ok := m[name]
		if !ok {
			t.Fatalf("metrics missing %s:\n%s", name, body)
		}
		if string(got) != val {
			t.Errorf("%s = %s, want %s", name, got, val)
		}
	}
	var rate float64
	if err := json.Unmarshal(m["cache_hit_rate"], &rate); err != nil {
		t.Fatalf("cache_hit_rate: %v", err)
	}
	// 2 hits (mem + disk) over 2 hits + 1 started.
	if want := 2.0 / 3.0; rate < want-1e-9 || rate > want+1e-9 {
		t.Errorf("cache_hit_rate = %v, want %v", rate, want)
	}
	var storeBytes int64
	if err := json.Unmarshal(m["store_bytes"], &storeBytes); err != nil || storeBytes <= 0 {
		t.Errorf("store_bytes = %s, want > 0", m["store_bytes"])
	}
}

// TestOpenFailsOnUnusableStoreDir: Open is the fatal-on-broken-store
// constructor, New the degrade-to-memory one.
func TestOpenFailsOnUnusableStoreDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(file, "store") // mkdir under a regular file must fail
	if _, err := Open(Config{Workers: 1, StoreDir: dir}); err == nil {
		t.Fatal("Open with an unusable store dir did not error")
	}
	var logged bytes.Buffer
	s := New(Config{Workers: 1, StoreDir: dir, Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	t.Cleanup(s.Close)
	if s.store != nil {
		t.Fatal("New kept a broken store")
	}
	if !strings.Contains(logged.String(), "disk store disabled") {
		t.Fatalf("New did not log the degraded store: %q", logged.String())
	}
}
