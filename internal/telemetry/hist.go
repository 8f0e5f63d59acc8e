package telemetry

import (
	"math"
	"sync"
	"time"

	"repro/internal/stats"
)

// Latency histograms reuse stats.StreamHist — the same fixed-range mergeable
// histogram the population engine streams votes through — but in log10
// domain: request latencies span five-plus decades (a mem cache hit in tens
// of microseconds, a cold population run in tens of seconds), so equal-width
// bins over raw seconds would collapse every fast class into one bin.
// 20 bins per decade over 100ns..100s keeps relative quantile error within a
// bin width (~12%) at constant memory.
const (
	histLogLo   = -7.0 // log10(100ns)
	histLogHi   = 2.0  // log10(100s)
	histBinsPer = 20
	histBins    = int((histLogHi - histLogLo) * histBinsPer)
)

// LatencyHist is a concurrency-safe log-domain latency histogram.
type LatencyHist struct {
	mu  sync.Mutex
	h   stats.StreamHist
	bin [histBins]int64
	sum float64 // seconds, for Prometheus summary _sum
}

func (l *LatencyHist) init() {
	l.h.Init(histLogLo, histLogHi, l.bin[:])
}

// Observe folds one duration in. Sub-nanosecond (zero) durations clamp to
// the lowest bin.
func (l *LatencyHist) Observe(d time.Duration) {
	sec := d.Seconds()
	lg := histLogLo
	if sec > 0 {
		lg = math.Log10(sec)
	}
	l.mu.Lock()
	l.h.Add(lg)
	l.sum += sec
	l.mu.Unlock()
}

// LatencyStats is one class's snapshot: counts, total time, and interpolated
// quantiles, all in seconds.
type LatencyStats struct {
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	P50        float64 `json:"p50_seconds"`
	P90        float64 `json:"p90_seconds"`
	P99        float64 `json:"p99_seconds"`
}

// Snapshot reports the histogram's current quantiles (zero stats when
// empty — JSON output stays finite, never NaN).
func (l *LatencyHist) Snapshot() LatencyStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := LatencyStats{Count: l.h.N(), SumSeconds: l.sum}
	if st.Count == 0 {
		return st
	}
	st.P50 = math.Pow(10, l.h.Quantile(0.50))
	st.P90 = math.Pow(10, l.h.Quantile(0.90))
	st.P99 = math.Pow(10, l.h.Quantile(0.99))
	return st
}

// LatencySet is a fixed set of per-class latency histograms (classes are the
// serving tiers: cold, mem, disk, peer, dedup). Class lookup is a linear
// scan over a handful of interned names — no map, no allocation on the
// observe path.
type LatencySet struct {
	classes []string
	hists   []*LatencyHist
}

// NewLatencySet builds a set with the given class names.
func NewLatencySet(classes ...string) *LatencySet {
	s := &LatencySet{classes: classes, hists: make([]*LatencyHist, len(classes))}
	for i := range s.hists {
		h := &LatencyHist{}
		h.init()
		s.hists[i] = h
	}
	return s
}

// Observe records d under class; unknown classes are dropped.
func (s *LatencySet) Observe(class string, d time.Duration) {
	for i, c := range s.classes {
		if c == class {
			s.hists[i].Observe(d)
			return
		}
	}
}

// Snapshot returns per-class stats in declaration order, keyed by class.
func (s *LatencySet) Snapshot() map[string]LatencyStats {
	out := make(map[string]LatencyStats, len(s.classes))
	for i, c := range s.classes {
		out[c] = s.hists[i].Snapshot()
	}
	return out
}
