package repro_test

// The serving blend under load: many concurrent clients against one daemon,
// mixing every way a request can resolve. The daemon serves a pure function
// of (experiments, scale, seed), so however the clients interleave, every
// response for a tuple must carry the same rows and summary, and the
// daemon's own accounting must add up to the requests it was sent.

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/pkg/qoe"
	"repro/pkg/qoe/qoed"
)

// loadRequest is one scheduled request. Members of a dedup group share
// barrier and are released together once all of them are in flight.
type loadRequest struct {
	seed    int64
	barrier *sync.WaitGroup
}

// loadOutcome is what a response for a seed carried.
type loadOutcome struct {
	summary qoe.SummaryEvent
	rows    int
}

// countRows counts the rows of a stream without keeping them.
type countRows struct{ n int }

func (c *countRows) Row(qoe.RowEvent) error           { c.n++; return nil }
func (c *countRows) Progress(qoe.ProgressEvent) error { return nil }
func (c *countRows) Summary(qoe.SummaryEvent) error   { return nil }

// TestServingBlendUnderLoad runs two daemon lives on one spill store. The
// first computes the disk tuples and closes. The second warms the cached
// tuples, then 64 clients run a shuffled blend of cold, cached, dedup and
// disk requests. Every response must match the first seen for its seed,
// across the restart too, and the daemon's per-class latency counts must
// equal its admission and tier counters and sum to the requests issued.
func TestServingBlendUnderLoad(t *testing.T) {
	const (
		clients     = 64
		cold        = 30
		cached      = 150
		dedupGroups = 15
		dedupSize   = 6
		disk        = 30
		warm        = 4

		// Disjoint seed spaces keep every class what it is scheduled as.
		cachedBase = 1
		coldBase   = 1_000_000
		dedupBase  = 2_000_000
		diskBase   = 3_000_000
	)
	ctx := t.Context()
	req := func(seed int64) qoe.RunRequest {
		return qoe.RunRequest{Experiments: []string{"table1"}, Scale: qoe.ScaleQuick, Seed: seed}
	}

	var mu sync.Mutex
	seen := map[int64]loadOutcome{}
	// check records the first outcome for a seed and compares every later
	// one against it.
	check := func(seed int64, got loadOutcome) {
		mu.Lock()
		defer mu.Unlock()
		want, ok := seen[seed]
		if !ok {
			seen[seed] = got
			return
		}
		if got != want {
			t.Errorf("seed %d: got %d rows and %+v, first response had %d rows and %+v",
				seed, got.rows, got.summary, want.rows, want.summary)
		}
	}
	run := func(client *qoe.Client, seed int64) {
		var rows countRows
		summary, err := client.Run(ctx, req(seed), &rows)
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return
		}
		check(seed, loadOutcome{summary, rows.n})
	}

	// First life: compute the disk tuples into the store, then close. A
	// summary is released only after its run is durable.
	cfg := qoed.Config{StoreDir: t.TempDir(), QueueDepth: clients}
	first, err := qoed.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(first)
	for i := int64(0); i < disk; i++ {
		run(qoe.NewClient(srv.URL, srv.Client()), diskBase+i)
	}
	srv.Close()
	first.Close()
	if t.Failed() {
		t.FailNow()
	}

	// Second life on the same store, with a cold RAM tier: warm the cached
	// tuples, then run the blend.
	daemon, err := qoed.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Close()
	srv = httptest.NewServer(daemon)
	defer srv.Close()
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer httpc.CloseIdleConnections()
	for i := int64(0); i < warm; i++ {
		run(qoe.NewClient(srv.URL, httpc), cachedBase+i)
	}

	// The blend, in units that are shuffled together: a cold request on a
	// fresh seed, a cached request on a warm one, a dedup group on a shared
	// fresh seed, and one request per disk tuple.
	rng := rand.New(rand.NewSource(1))
	var units [][]loadRequest
	for i := int64(0); i < cold; i++ {
		units = append(units, []loadRequest{{seed: coldBase + i}})
	}
	for i := 0; i < cached; i++ {
		units = append(units, []loadRequest{{seed: cachedBase + rng.Int63n(warm)}})
	}
	for g := int64(0); g < dedupGroups; g++ {
		barrier := new(sync.WaitGroup)
		barrier.Add(dedupSize)
		group := make([]loadRequest, dedupSize)
		for i := range group {
			group[i] = loadRequest{seed: dedupBase + g, barrier: barrier}
		}
		units = append(units, group)
	}
	for i := int64(0); i < disk; i++ {
		units = append(units, []loadRequest{{seed: diskBase + i}})
	}
	rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })

	// A group's members are queued back to back, so with more clients than
	// a group has members every barrier fills.
	work := make(chan loadRequest)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := qoe.NewClient(srv.URL, httpc)
			for r := range work {
				if r.barrier != nil {
					r.barrier.Done()
					r.barrier.Wait()
				}
				run(client, r.seed)
			}
		}()
	}
	issued := warm
	for _, unit := range units {
		for _, r := range unit {
			work <- r
			issued++
		}
	}
	close(work)
	wg.Wait()

	// Close waits for every handler, so each request's latency observation
	// has landed before the metrics are read.
	srv.Close()
	rec := httptest.NewRecorder()
	daemon.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m qoe.DaemonMetrics
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics: %v\n%s", err, rec.Body.Bytes())
	}

	if m.RunsRejected != 0 {
		t.Errorf("runs_rejected = %d with a queue as deep as the client count", m.RunsRejected)
	}
	if m.RunsDeduped < 1 || m.CacheHitsMem < 1 {
		t.Errorf("runs_deduped = %d, cache_hits_mem = %d, want both >= 1", m.RunsDeduped, m.CacheHitsMem)
	}
	if m.CacheHitsDisk != disk {
		t.Errorf("cache_hits_disk = %d, want one per disk request (%d)", m.CacheHitsDisk, disk)
	}
	var total int64
	for _, c := range []struct {
		class   string
		counter int64
	}{
		{"cold", m.RunsAccepted},
		{"dedup", m.RunsDeduped},
		{"mem", m.CacheHitsMem},
		{"disk", m.CacheHitsDisk},
	} {
		st := m.Latency[c.class]
		if st.Count != c.counter {
			t.Errorf("latency class %s counted %d requests, its counter %d", c.class, st.Count, c.counter)
		}
		total += st.Count
		t.Logf("%-5s %4d requests  p50 %8.3f ms  p99 %8.3f ms", c.class, st.Count, st.P50*1e3, st.P99*1e3)
	}
	if total != int64(issued) {
		t.Errorf("latency classes sum to %d requests, %d were issued", total, issued)
	}
}
