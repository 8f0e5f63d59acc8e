package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/pkg/qoe"
)

// benchServer builds a server whose cache is already warm with the table1
// tuple, so the measured path is pure serving: admission → cache hit →
// replay. This is the steady-state hot path of a study-serving deployment —
// determinism means almost every request after warmup is a replay.
func benchServer(b *testing.B) (*Server, *httptest.Server, string) {
	b.Helper()
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s)
	b.Cleanup(ts.Close)
	b.Cleanup(s.Close)
	url := ts.URL + "/v1/run?experiments=table1&scale=quick&seed=1"
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	warm, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(warm) == 0 {
		b.Fatalf("warmup failed: %d (%d bytes)", resp.StatusCode, len(warm))
	}
	return s, ts, url
}

// BenchmarkServeCachedRun measures one full HTTP round trip of a cached
// run: the zero-simulation replay path, end to end through the mux,
// admission, cache, and response writer.
func BenchmarkServeCachedRun(b *testing.B) {
	s, _, url := benchServer(b)
	client := &http.Client{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if n == 0 {
			b.Fatal("empty replay")
		}
	}
	b.StopTimer()
	if s.met.runsStarted.Value() != 1 {
		b.Fatalf("hot path simulated %d times, want 1 (warmup only)", s.met.runsStarted.Value())
	}
}

// BenchmarkServeDiskHit measures the full HTTP round trip of a run served
// from the durable tier: RAM is evicted before every request, so each
// iteration pays the read + checksum + promote cycle a restarted or
// memory-pressured daemon pays.
func BenchmarkServeDiskHit(b *testing.B) {
	dir := b.TempDir()
	s := New(Config{Workers: 2, StoreDir: dir})
	ts := httptest.NewServer(s)
	b.Cleanup(ts.Close)
	b.Cleanup(s.Close)
	url := ts.URL + "/v1/run?experiments=table1&scale=quick&seed=1"
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("warmup failed: %d", resp.StatusCode)
	}
	spec, err := Canonicalize([]string{"table1"}, nil, "quick", 1)
	if err != nil {
		b.Fatal(err)
	}
	id := spec.ID()
	// A finished response means the run is published to both tiers, so the
	// timed loop never dedups onto the warmup job.
	if !s.store.Has(id) || s.cache.entries() != 1 {
		b.Fatal("warmup run not published to the RAM and disk tiers")
	}
	client := &http.Client{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.cache.remove(id) // force the next hit onto the disk tier
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if n == 0 {
			b.Fatal("empty replay")
		}
	}
	b.StopTimer()
	if s.met.runsStarted.Value() != 1 {
		b.Fatalf("disk path simulated %d times, want 1 (warmup only)", s.met.runsStarted.Value())
	}
	if got := s.met.cacheHitsDisk.Value(); got < int64(b.N) {
		b.Fatalf("cache_hits_disk = %d, want >= %d", got, b.N)
	}
}

// BenchmarkServeConcurrentClients measures the same cached hot path under
// client concurrency — the many-participants-one-study shape the paper's
// hosted deployment served.
func BenchmarkServeConcurrentClients(b *testing.B) {
	_, _, url := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		for pb.Next() {
			resp, err := client.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			n, _ := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if n == 0 {
				b.Fatal("empty replay")
			}
		}
	})
}

// BenchmarkServeBroadcastFanout measures the in-process broadcast machinery
// without HTTP: one job streaming a synthetic run to 8 subscribers. This
// isolates the cond/append/snapshot cycle the live path is built on.
func BenchmarkServeBroadcastFanout(b *testing.B) {
	payload := bytes.Repeat([]byte(`{"schema_version":1,"type":"row","experiment":"x","index":0,"data":{}}`+"\n"), 64)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)) * 8)
	for i := 0; i < b.N; i++ {
		spec := RunSpec{Experiments: []string{"x"}, Scale: qoe.ScaleQuick, Seed: int64(i)}
		ctx, cancel := context.WithCancel(context.Background())
		j := newJob(spec.ID(), spec.Key(), spec, ctx, cancel, false)
		done := make(chan error, 8)
		for sub := 0; sub < 8; sub++ {
			go func() {
				_, err := j.stream(context.Background(), io.Discard)
				done <- err
			}()
		}
		for off := 0; off < len(payload); off += 1024 {
			end := off + 1024
			if end > len(payload) {
				end = len(payload)
			}
			if _, err := j.Write(payload[off:end]); err != nil {
				b.Fatal(err)
			}
		}
		j.finish(nil)
		for sub := 0; sub < 8; sub++ {
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
		cancel()
	}
}

// BenchmarkCanonicalize measures the admission-time spec work (resolve,
// sort, hash) — per-request overhead on every serving path.
func BenchmarkCanonicalize(b *testing.B) {
	sel := []string{"table2", "table1", "fig4"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec, err := Canonicalize(sel, nil, "quick", 1)
		if err != nil {
			b.Fatal(err)
		}
		if spec.ID() == "" {
			b.Fatal("empty id")
		}
	}
}
