// Package telemetry is the observability layer of the serving fleet: a
// lightweight, allocation-disciplined tracing facility (spans at run/shard
// granularity, pooled, never per-vote), per-class latency histograms built
// on stats.StreamHist, a typed metrics registry rendered both as JSON and as
// Prometheus text, structured-logging helpers, and build-info reporting.
//
// Tracing model. A trace is the complete lifecycle of one canonical run —
// admission, queue wait, simulate, publish, plus disk reads/writes, peer
// fills, fabric sub-job dispatches and retries, and adaptive round/grant
// decisions. Trace IDs are DETERMINISTIC: the trace of a run is keyed by the
// run's canonical content address (the 32-hex run ID), so the same tuple
// always lands in the same trace and an operator can compute the trace URL
// from the request alone. Distribution stitches through propagation: a
// coordinator injects a traceparent-style header on the shard wire, workers
// record their spans under the propagated trace ID, and the coordinator
// merges worker span dumps back into its own ring — one distributed study,
// one trace.
//
// Spans never touch the NDJSON study wire: the stream stays byte-identical
// with telemetry on or off, and traces ride separate channels (the in-memory
// ring behind /debug/trace/{id}, and an optional NDJSON span log).
package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config sizes a Tracer. Zero values take defaults.
type Config struct {
	// MaxTraces bounds the in-memory trace ring (default 256). The oldest
	// trace is evicted when a new trace ID would exceed the bound.
	MaxTraces int
	// MaxSpans bounds the spans retained per trace (default 512); spans
	// beyond the bound are counted as dropped, not stored. Deterministic
	// trace IDs mean a hot cached tuple keeps appending to one trace — the
	// bound is what keeps that trace from growing without limit.
	MaxSpans int
	// LogW, when set, receives one NDJSON line per finished span (the
	// -trace-log file). Writes happen under the tracer mutex, in span-finish
	// order.
	LogW io.Writer
}

func (c Config) withDefaults() Config {
	if c.MaxTraces <= 0 {
		c.MaxTraces = 256
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = 512
	}
	return c
}

// Attr is one key/value annotation on a span. Values are strings — hot-path
// callers pass pre-interned constants ("mem", "disk"); cold-path callers may
// format freely.
type Attr struct {
	Key   string
	Value string
}

// Attrs marshals as a flat JSON object, so trace dumps read
// {"worker":"http://...","attempt":"2"} rather than an array of pairs.
type Attrs []Attr

// MarshalJSON renders the attribute list as a JSON object in list order.
func (a Attrs) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, 16*len(a)+2)
	buf = append(buf, '{')
	for i, kv := range a {
		if i > 0 {
			buf = append(buf, ',')
		}
		k, err := json.Marshal(kv.Key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(kv.Value)
		if err != nil {
			return nil, err
		}
		buf = append(buf, k...)
		buf = append(buf, ':')
		buf = append(buf, v...)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON accepts the object form (key order is preserved by repeated
// decoding only loosely; merge consumers treat attrs as a set).
func (a *Attrs) UnmarshalJSON(data []byte) error {
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	out := make(Attrs, 0, len(m))
	for k, v := range m {
		out = append(out, Attr{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	*a = out
	return nil
}

// Get returns the value of key, or "".
func (a Attrs) Get(key string) string {
	for _, kv := range a {
		if kv.Key == key {
			return kv.Value
		}
	}
	return ""
}

// SpanRecord is one finished span as stored in the ring, merged across
// workers, and emitted on the NDJSON span log. Span IDs are unique within
// one process; Origin disambiguates spans merged from another process (the
// coordinator stamps the worker URL on merge), so (origin, span_id) is the
// stitched trace's span identity.
type SpanRecord struct {
	TraceID  string `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	Origin   string `json:"origin,omitempty"`
	StartNS  int64  `json:"start_unix_ns"`
	DurNS    int64  `json:"duration_ns"`
	Err      string `json:"error,omitempty"`
	Attrs    Attrs  `json:"attrs,omitempty"`
}

// maxSpanAttrs is the inline attribute capacity of a pooled span; Attr calls
// beyond it are dropped (observability stays bounded, never the reverse).
const maxSpanAttrs = 8

// Span is one in-flight span. Obtain with Tracer.Start (or Tracer.Record for
// retroactive spans), annotate with Attr, and finish with End/EndErr exactly
// once. All methods are nil-safe so disabled telemetry costs one branch.
type Span struct {
	t      *Tracer
	trace  string
	name   string
	id     uint64
	parent uint64
	start  time.Time
	errMsg string
	attrs  [maxSpanAttrs]Attr
	n      int
}

// ID returns the span's ID (0 for a nil span) — the parent for child spans
// and the traceparent injection value.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Attr annotates the span. No-op on nil spans or past the inline capacity.
func (s *Span) Attr(key, value string) {
	if s == nil || s.n >= maxSpanAttrs {
		return
	}
	s.attrs[s.n] = Attr{Key: key, Value: value}
	s.n++
}

// End finishes the span and records it.
func (s *Span) End() { s.end(nil) }

// EndAt finishes the span at an explicit end time — the alloc-free variant
// for hot paths that already hold the completion timestamp.
func (s *Span) EndAt(end time.Time) { s.endAt(end) }

// EndErr finishes the span, recording err (nil err == End).
func (s *Span) EndErr(err error) { s.end(err) }

func (s *Span) end(err error) {
	if s == nil || s.t == nil {
		return
	}
	t := s.t
	s.t = nil // guard double-End: second call sees nil tracer
	if err != nil {
		s.errMsg = err.Error()
	}
	t.finish(s)
}

// trace is one retained trace: its spans plus the attr slab their Attrs
// slices alias (growing the slab re-backs future spans only; recorded spans
// keep their original backing array).
type trace struct {
	id     string
	spans  []SpanRecord
	attrs  []Attr
	merged map[mergeKey]struct{}
}

type mergeKey struct {
	origin string
	span   uint64
}

// Tracer records spans into a bounded in-memory ring of traces, optionally
// teeing each finished span to an NDJSON log. Safe for concurrent use. A nil
// *Tracer is a valid no-op tracer.
type Tracer struct {
	cfg Config
	seq atomic.Uint64

	mu      sync.Mutex
	traces  map[string]*trace
	order   []string
	dropped int64
	logBuf  []byte

	pool sync.Pool
}

// New builds a Tracer.
func New(cfg Config) *Tracer {
	t := &Tracer{cfg: cfg.withDefaults(), traces: map[string]*trace{}}
	t.pool.New = func() any { return new(Span) }
	return t
}

// Start opens a span in traceID under parent (0 = root). Returns nil on a
// nil tracer.
func (t *Tracer) Start(traceID, name string, parent uint64) *Span {
	return t.StartAt(traceID, name, parent, time.Now())
}

// StartAt is Start with an explicit start time (retroactive spans whose wall
// region is already known start at their true beginning).
func (t *Tracer) StartAt(traceID, name string, parent uint64, start time.Time) *Span {
	if t == nil || traceID == "" {
		return nil
	}
	s := t.pool.Get().(*Span)
	*s = Span{t: t, trace: traceID, name: name, id: t.seq.Add(1), parent: parent, start: start}
	return s
}

// Record stores an already-finished span in one call — the retroactive form
// used for wall regions measured by existing timestamps (queue wait). It
// returns the new span's ID.
func (t *Tracer) Record(traceID, name string, parent uint64, start, end time.Time, attrs ...Attr) uint64 {
	if t == nil || traceID == "" {
		return 0
	}
	s := t.StartAt(traceID, name, parent, start)
	for _, a := range attrs {
		s.Attr(a.Key, a.Value)
	}
	s.endAt(end)
	return s.id
}

func (s *Span) endAt(end time.Time) {
	if s == nil || s.t == nil {
		return
	}
	t := s.t
	s.t = nil
	t.finishAt(s, end)
}

func (t *Tracer) finish(s *Span) { t.finishAt(s, time.Now()) }

func (t *Tracer) finishAt(s *Span, end time.Time) {
	rec := SpanRecord{
		TraceID:  s.trace,
		SpanID:   s.id,
		ParentID: s.parent,
		Name:     s.name,
		StartNS:  s.start.UnixNano(),
		DurNS:    end.Sub(s.start).Nanoseconds(),
		Err:      s.errMsg,
	}
	t.mu.Lock()
	tr := t.traceLocked(s.trace)
	if len(tr.spans) < t.cfg.MaxSpans {
		base := len(tr.attrs)
		tr.attrs = append(tr.attrs, s.attrs[:s.n]...)
		if s.n > 0 {
			rec.Attrs = Attrs(tr.attrs[base : base+s.n : base+s.n])
		}
		tr.spans = append(tr.spans, rec)
	} else {
		t.dropped++
	}
	if t.cfg.LogW != nil {
		// The log line owns its attrs copy (the ring slab must not alias an
		// encoder-visible slice once the pool recycles the span).
		logRec := rec
		if s.n > 0 {
			logRec.Attrs = append(Attrs(nil), s.attrs[:s.n]...)
		}
		t.writeLogLocked(&logRec)
	}
	t.mu.Unlock()
	t.pool.Put(s)
}

// writeLogLocked appends one NDJSON span line to the configured log.
func (t *Tracer) writeLogLocked(rec *SpanRecord) {
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	t.logBuf = append(t.logBuf[:0], line...)
	t.logBuf = append(t.logBuf, '\n')
	_, _ = t.cfg.LogW.Write(t.logBuf)
}

// traceLocked returns (creating if needed) the trace for id, evicting the
// oldest trace past the ring bound. Caller holds t.mu.
func (t *Tracer) traceLocked(id string) *trace {
	if tr, ok := t.traces[id]; ok {
		return tr
	}
	for len(t.order) >= t.cfg.MaxTraces {
		delete(t.traces, t.order[0])
		t.order = t.order[1:]
	}
	tr := &trace{id: id}
	t.traces[id] = tr
	t.order = append(t.order, id)
	return tr
}

// Merge folds spans recorded by another process (a worker's trace dump) into
// traceID, stamping origin on spans that lack one. Spans already merged from
// the same (origin, span_id) are skipped, so re-collecting a worker after a
// retry cannot duplicate its spans.
func (t *Tracer) Merge(traceID, origin string, spans []SpanRecord) {
	if t == nil || traceID == "" || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.traceLocked(traceID)
	if tr.merged == nil {
		tr.merged = map[mergeKey]struct{}{}
	}
	for _, rec := range spans {
		if rec.Origin == "" {
			rec.Origin = origin
		}
		key := mergeKey{origin: rec.Origin, span: rec.SpanID}
		if _, dup := tr.merged[key]; dup {
			continue
		}
		tr.merged[key] = struct{}{}
		if len(tr.spans) >= t.cfg.MaxSpans {
			t.dropped++
			continue
		}
		rec.TraceID = traceID
		tr.spans = append(tr.spans, rec)
	}
}

// TraceDump is the wire form of one stitched trace (/debug/trace/{id}).
type TraceDump struct {
	SchemaVersion int          `json:"schema_version"`
	TraceID       string       `json:"trace_id"`
	Spans         []SpanRecord `json:"spans"`
}

// Snapshot returns a copy of traceID's spans sorted by start time (ties by
// origin then span ID), or ok=false if the ring holds no such trace.
func (t *Tracer) Snapshot(traceID string) (TraceDump, bool) {
	if t == nil {
		return TraceDump{}, false
	}
	t.mu.Lock()
	tr, ok := t.traces[traceID]
	if !ok {
		t.mu.Unlock()
		return TraceDump{}, false
	}
	spans := append([]SpanRecord(nil), tr.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].StartNS != spans[j].StartNS {
			return spans[i].StartNS < spans[j].StartNS
		}
		if spans[i].Origin != spans[j].Origin {
			return spans[i].Origin < spans[j].Origin
		}
		return spans[i].SpanID < spans[j].SpanID
	})
	return TraceDump{TraceID: traceID, Spans: spans}, true
}

// Traces returns the number of retained traces; Dropped the spans discarded
// over per-trace bounds.
func (t *Tracer) Traces() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces)
}

// Dropped returns the count of spans discarded at per-trace capacity.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// TraceparentHeader carries trace propagation on the shard wire, named and
// formatted after the W3C Trace Context header so standard tooling parses
// it: "00-<32 hex trace id>-<16 hex parent span id>-01".
const TraceparentHeader = "Traceparent"

// FormatTraceparent renders the propagation header value.
func FormatTraceparent(traceID string, parent uint64) string {
	return fmt.Sprintf("00-%s-%016x-01", traceID, parent)
}

// ParseTraceparent parses a propagation header value; ok is false for
// anything malformed (the receiver then derives its own trace ID). The
// trace-flags field is not interpreted, but like every other field it must
// be lowercase hex, as W3C Trace Context requires.
func ParseTraceparent(h string) (traceID string, parent uint64, ok bool) {
	if len(h) != 55 || h[:3] != "00-" || h[35] != '-' || h[52] != '-' || !isHex(h[53]) || !isHex(h[54]) {
		return "", 0, false
	}
	traceID = h[3:35]
	for i := 0; i < len(traceID); i++ {
		if !isHex(traceID[i]) {
			return "", 0, false
		}
	}
	for i := 36; i < 52; i++ {
		c := h[i]
		if !isHex(c) {
			return "", 0, false
		}
		parent = parent<<4 | uint64(hexVal(c))
	}
	return traceID, parent, true
}

func isHex(c byte) bool { return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' }
func hexVal(c byte) byte {
	if c <= '9' {
		return c - '0'
	}
	return c - 'a' + 10
}

// TraceContext is the propagation state flowed through context.Context so
// layers below the HTTP handlers (the fabric backend inside a session, the
// adaptive engine inside an experiment) can parent their spans correctly
// without threading telemetry through every signature.
type TraceContext struct {
	Tracer  *Tracer
	TraceID string
	Parent  uint64
}

type ctxKey struct{}

// NewContext attaches tc to ctx.
func NewContext(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, tc)
}

// FromContext extracts the propagation state; the zero TraceContext (nil
// tracer — every operation no-ops) when absent.
func FromContext(ctx context.Context) TraceContext {
	tc, _ := ctx.Value(ctxKey{}).(TraceContext)
	return tc
}

// Start opens a span under the context's trace; nil (no-op) when the context
// carries no tracer.
func (tc TraceContext) Start(name string) *Span {
	return tc.Tracer.Start(tc.TraceID, name, tc.Parent)
}
