package serve

import (
	"net/http"
	"time"

	"repro/internal/adaptive"
	"repro/internal/telemetry"
)

// metrics is the server's metric set. Each Server owns its registry, so many
// servers in one process (every fabric test) never share a number. The
// /metrics endpoint renders it.
type metrics struct {
	reg telemetry.Registry

	runsAccepted, runsDeduped, runsCacheHit, runsRejected *telemetry.Counter
	// completed and failed partition started. A peer-filled job counts in
	// none of them: nothing simulated, so a fully warm fleet shows
	// runs_started frozen while cache_hits_peer climbs.
	runsStarted, runsCompleted, runsFailed       *telemetry.Counter
	cacheHitsMem, cacheHitsDisk, cacheHitsPeer   *telemetry.Counter
	prewarmWarmed, prewarmAlready, prewarmFailed *telemetry.Counter
	bytesStreamed                                *telemetry.Counter

	// adaptive travels on every run context, so the sequential-stopping
	// engine counts into this server's registry.
	adaptive *adaptive.Counters
}

func newMetrics(s *Server) *metrics {
	m := &metrics{}
	r := &m.reg
	m.runsAccepted = r.Counter("runs_accepted", "Run requests that enqueued a fresh job.")
	m.runsDeduped = r.Counter("runs_deduped", "Run requests attached to a live job for the same tuple.")
	m.runsCacheHit = r.Counter("runs_cache_hit", "Run requests replayed from finished bytes in a tier.")
	m.runsRejected = r.Counter("runs_rejected", "Run requests shed with 429 because the job queue was full.")
	m.runsStarted = r.Counter("runs_started", "Jobs a worker picked up and simulated; peer fills are not counted.")
	m.runsCompleted = r.Counter("runs_completed", "Simulated jobs that finished successfully.")
	m.runsFailed = r.Counter("runs_failed", "Simulated jobs that finished with an error.")
	m.bytesStreamed = r.Counter("bytes_streamed", "NDJSON bytes delivered to clients, live broadcasts and replays.")
	m.cacheHitsMem = r.Counter("cache_hits_mem", "Replays served from the RAM tier.")
	m.cacheHitsDisk = r.Counter("cache_hits_disk", "Replays served from the disk tier.")
	m.cacheHitsPeer = r.Counter("cache_hits_peer", "Misses filled from a warm peer instead of simulated.")
	m.prewarmWarmed = r.Counter("prewarm_warmed", "Boot-time prewarm tuples computed.")
	m.prewarmAlready = r.Counter("prewarm_already_warm", "Boot-time prewarm tuples already warm in some tier.")
	m.prewarmFailed = r.Counter("prewarm_failed", "Boot-time prewarm tuples that failed.")

	// Gauges read live server state on scrape.
	r.Gauge("queue_depth", "Jobs waiting in the queue.", func() float64 { return float64(len(s.queue)) })
	r.Gauge("queue_capacity", "Jobs the queue holds before shedding load.", func() float64 { return float64(cap(s.queue)) })
	r.Gauge("live_runs", "Jobs in the singleflight table, queued or running.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.live))
	})
	r.Gauge("cache_bytes", "Bytes resident in the RAM result cache.", func() float64 { return float64(s.cache.bytes()) })
	r.Gauge("cache_entries", "Streams resident in the RAM result cache.", func() float64 { return float64(s.cache.entries()) })
	r.Gauge("cache_evictions", "Streams the byte budget has pushed out of the RAM result cache.", func() float64 { return float64(s.cache.evicted()) })
	// Peer fills count as hits — the fleet did the work once — and
	// runs_started is the complement: every pickup that wasn't a hit.
	r.Gauge("cache_hit_rate", "Share of resolved runs served without a local simulation; 0 until the first run resolves.", func() float64 {
		hits := m.cacheHitsMem.Value() + m.cacheHitsDisk.Value() + m.cacheHitsPeer.Value()
		total := hits + m.runsStarted.Value()
		if total == 0 {
			return 0
		}
		return float64(hits) / float64(total)
	})
	r.Gauge("workers", "Maximum concurrent simulations.", func() float64 { return float64(s.cfg.Workers) })
	if s.store != nil {
		r.Gauge("store_entries", "Streams committed to the disk spill store.", func() float64 { return float64(s.store.Entries()) })
		r.Gauge("store_bytes", "On-disk size of the spill store, frames included.", func() float64 { return float64(s.store.Bytes()) })
		r.Gauge("store_quarantined", "Corrupt spill entries this process has quarantined.", func() float64 { return float64(s.store.Quarantined()) })
	}
	if s.cfg.Fabric != nil {
		r.Mount("fabric", s.cfg.Fabric.Metrics())
	}
	ad := new(telemetry.Registry)
	m.adaptive = adaptive.NewCounters(ad)
	r.Mount("adaptive", ad)

	r.Gauge("uptime_seconds", "Seconds since the server started.", func() float64 { return time.Since(s.started).Seconds() })
	r.Value("build_info", "Version, VCS revision and Go toolchain of the binary.", func() any { return telemetry.BuildInfo() })
	r.Value("latency", "Serving latency quantiles in seconds per resolution class: cold, mem, disk, peer, dedup.", func() any { return s.lat.Snapshot() })
	if s.tr != nil {
		r.Gauge("traces_retained", "Traces held in the in-memory trace ring.", func() float64 { return float64(s.tr.Traces()) })
		r.Gauge("trace_spans_dropped", "Spans dropped because their trace reached its span bound.", func() float64 { return float64(s.tr.Dropped()) })
	}
	return m
}

// handleMetrics renders the registry: by default as JSON, or — with
// ?format=prom — as Prometheus text exposition plus the per-class latency
// summaries and the build-info gauge.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		buf := s.met.reg.AppendProm(make([]byte, 0, 8<<10), "qoed")
		buf = s.lat.AppendProm(buf, "qoed_request_latency_seconds")
		buf = telemetry.AppendPromBuildInfo(buf, "qoed", telemetry.BuildInfo())
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(buf)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(append(s.met.reg.AppendJSON(make([]byte, 0, 2<<10)), '\n'))
}
