package qoe

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Stage identifies which phase of a run a ProgressEvent reports on.
type Stage string

// The run stages, in order.
const (
	// StagePrewarm covers the shared-testbed recording of the merged
	// (site × network × protocol) condition plan.
	StagePrewarm Stage = "prewarm"
	// StageExperiment covers experiment execution.
	StageExperiment Stage = "experiment"
)

// RowEvent is one streamed result row. For experiments whose JSON encoding
// is an array (the common case — one element per table row or figure cell),
// each element becomes one RowEvent in order; experiments that encode a
// single document emit exactly one RowEvent holding it. Data is compact
// JSON, and the sequence of RowEvents for a given session configuration is
// deterministic — it is pinned by the stream golden alongside the classic
// renderings.
type RowEvent struct {
	Experiment string
	Index      int
	Data       json.RawMessage
}

// ProgressEvent reports coarse progress: conditions during StagePrewarm
// (endpoint-granular: one event at zero, one at completion), experiments
// completed during StageExperiment (one event per experiment). Experiment-
// stage events fire in completion order, which under parallelism is not the
// row/result delivery order; Experiment names the unit that just completed
// and is empty on a stage's leading zero-progress event.
type ProgressEvent struct {
	Stage      Stage
	Experiment string
	Completed  int
	Total      int
}

// SummaryEvent closes a run with its deterministic accounting: counts and
// shared-cache counters only — wall-clock timings live on Summary, off the
// wire, so streamed output stays reproducible.
type SummaryEvent struct {
	Experiments int
	// Rows counts the RowEvents actually delivered to the sink; it is zero
	// for the document sinks (TextSink/CSVSink/JSONSink), which consume
	// whole Documents and ignore the row stream.
	Rows         int
	Conditions   int
	CacheRecords uint64
	CacheHits    uint64
}

// Document is one experiment's complete result, renderable in the three
// classic whole-document encodings. It is the contract the adapter sinks
// (TextSink, CSVSink, JSONSink) consume to reproduce the pre-SDK output
// byte-for-byte.
type Document interface {
	Render(w io.Writer)
	CSV(w io.Writer) error
	JSON(w io.Writer) error
}

// ResultEvent carries one experiment's complete outcome, delivered strictly
// in selection order. Doc is nil when Err is non-nil. Duration is the value
// the classic text framing line renders. A Session leaves it at zero: the
// original runner's deferred stopwatch never reached the returned copy, so
// the framing has always printed "0s" — and that accident is what makes
// qoebench's stdout byte-identical across runs and parallelism settings, a
// contract the goldens and the streaming adapters rely on. Wall-clock
// accounting lives in Summary.Prewarm/Total, where nondeterminism is
// expected.
type ResultEvent struct {
	Experiment string
	Seed       int64
	Duration   time.Duration
	Err        error
	Doc        Document
}

// DecisionEvent reports one sequential-stopping decision of an adaptive
// experiment (pop-sweep-adaptive): the outcome the confidence sequence
// locked for one grid cell, with the vote accounting behind it. Decisions
// are delivered strictly in grid order, after the experiment's ResultEvent
// and before its RowEvents, and only to sinks that implement DecisionSink.
// The wire encoding is a schema_version 1 NDJSON line of type "decision" —
// an additive line type, so pre-adaptive decoders of the same schema never
// see it (they reject adaptive studies upstream; see SchemaUnsupportedError).
type DecisionEvent struct {
	Experiment string
	// Cell names the grid cell the decision is about (e.g. "LTEx2").
	Cell string
	// Index is the cell's position in the experiment's deterministic grid
	// order, matching the row index of the experiment's Document.
	Index int
	// Outcome is "noticeable", "not-noticeable", or "exhausted".
	Outcome string
	// Round and Looks locate the decision in the allocator's round
	// structure: the round the decision locked in, and how many confidence-
	// sequence looks the cell consumed.
	Round int
	Looks int
	// Votes is the number of votes actually simulated for the cell; Budget
	// is what a fixed-budget run would have spent.
	Votes  int64
	Budget int64
	// Point, Lo, Hi, Level describe the noticeability interval at the
	// decision: the point estimate, its confidence bounds, and the
	// always-valid confidence level they hold at.
	Point float64
	Lo    float64
	Hi    float64
	Level float64
}

// Sink consumes the event stream of Session.Run. Methods are called from a
// single goroutine, in a deterministic order for Row and Summary events; a
// non-nil error from any method cancels the run and is returned from Run.
type Sink interface {
	Row(RowEvent) error
	Progress(ProgressEvent) error
	Summary(SummaryEvent) error
}

// ResultSink is an optional Sink extension for consumers that want each
// experiment's whole Document (the classic text/CSV/JSON renderings) in
// addition to — or instead of — the row stream. Result is called once per
// experiment, strictly in selection order, before the experiment's
// RowEvents.
type ResultSink interface {
	Result(ResultEvent) error
}

// DecisionSink is an optional Sink extension for consumers of adaptive
// experiments' stopping decisions. Decision is called once per grid cell,
// in grid order, between the experiment's ResultEvent and its RowEvents.
// Sinks that do not implement it simply never see decisions — the rest of
// the stream is unchanged, which is what lets the decision line ride on
// schema_version 1 without a bump.
type DecisionSink interface {
	Decision(DecisionEvent) error
}

// rowless marks the built-in sinks whose Row method is a no-op, so the
// session can skip materializing row events for them entirely (document
// sinks re-encode from the Document instead).
type rowless interface{ discardsRows() }

// discardSink is the no-sink default of Session.Run.
type discardSink struct{}

func (discardSink) Row(RowEvent) error           { return nil }
func (discardSink) Progress(ProgressEvent) error { return nil }
func (discardSink) Summary(SummaryEvent) error   { return nil }
func (discardSink) discardsRows()                {}

// rowEvents explodes one experiment result into its row stream: the
// elements of an array-encoded result, or the whole document as a single
// row.
func rowEvents(name string, doc Document) ([]RowEvent, error) {
	var buf bytes.Buffer
	if err := doc.JSON(&buf); err != nil {
		return nil, fmt.Errorf("%s: encoding rows: %w", name, err)
	}
	raw := bytes.TrimSpace(buf.Bytes())
	compact := func(r json.RawMessage) (json.RawMessage, error) {
		var c bytes.Buffer
		if err := json.Compact(&c, r); err != nil {
			return nil, fmt.Errorf("%s: compacting row: %w", name, err)
		}
		return c.Bytes(), nil
	}
	if len(raw) > 0 && raw[0] == '[' {
		var elems []json.RawMessage
		if err := json.Unmarshal(raw, &elems); err != nil {
			return nil, fmt.Errorf("%s: decoding rows: %w", name, err)
		}
		out := make([]RowEvent, 0, len(elems))
		for i, e := range elems {
			data, err := compact(e)
			if err != nil {
				return nil, err
			}
			out = append(out, RowEvent{Experiment: name, Index: i, Data: data})
		}
		return out, nil
	}
	data, err := compact(raw)
	if err != nil {
		return nil, err
	}
	return []RowEvent{{Experiment: name, Index: 0, Data: data}}, nil
}
