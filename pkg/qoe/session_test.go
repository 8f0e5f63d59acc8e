package qoe

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// sessionScenarios is a small but representative selection: two static
// tables plus one experiment that really simulates (the 0-RTT extension
// drives the page loader).
var sessionScenarios = []string{"table1", "table2", "ext-0rtt"}

// goldenOutputs is what the pre-SDK qoebench printed for the selection at
// seed 1: the committed quick-scale goldens, concatenated in selection order
// (text framed by the "[name done in 0s]" timing line, CSV unframed).
func goldenOutputs(t *testing.T, ext string) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, name := range sessionScenarios {
		doc, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name+"."+ext))
		if err != nil {
			t.Fatal(err)
		}
		out.Write(doc)
		if ext == "txt" {
			fmt.Fprintf(&out, "\n[%s done in 0s]\n\n", name)
		}
	}
	return out.Bytes()
}

// resultJSON encodes each experiment's Result.JSON, run directly off one
// testbed with its derived seed — the document qoebench -format json prints.
func resultJSON(t *testing.T, seed int64) []byte {
	t.Helper()
	exps, err := experiments.Select(sessionScenarios...)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ScaleQuick.testbedScale()
	if err != nil {
		t.Fatal(err)
	}
	tb := core.NewTestbed(sc, seed)
	var out bytes.Buffer
	for _, e := range exps {
		res, err := e.Run(context.Background(), tb, experiments.Options{Scale: sc, Seed: core.DeriveSeed(seed, e.Name())})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.JSON(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

func newTestSession(t *testing.T, seed int64, parallel int) *Session {
	t.Helper()
	sess, err := NewSession(
		WithScenarios(sessionScenarios...),
		WithSeed(seed),
		WithScale(ScaleQuick),
		WithParallelism(parallel),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestAdapterSinksMatchLegacyRunner: the adapter sinks must reproduce the
// pre-SDK text (framed), CSV, and JSON batch outputs byte-for-byte — the
// contract that keeps cmd/qoebench's output stable across the redesign.
// Text and CSV are anchored on the goldens, JSON on each Result.JSON.
func TestAdapterSinksMatchLegacyRunner(t *testing.T) {
	const seed = 1
	for _, tc := range []struct {
		format string
		sink   func(*bytes.Buffer) Sink
		want   func() []byte
	}{
		{"text", func(b *bytes.Buffer) Sink { return TextSink(b) }, func() []byte { return goldenOutputs(t, "txt") }},
		{"csv", func(b *bytes.Buffer) Sink { return CSVSink(b) }, func() []byte { return goldenOutputs(t, "csv") }},
		{"json", func(b *bytes.Buffer) Sink { return JSONSink(b) }, func() []byte { return resultJSON(t, seed) }},
	} {
		want := tc.want()
		var got bytes.Buffer
		sess := newTestSession(t, seed, 4)
		if _, err := sess.Run(context.Background(), tc.sink(&got)); err != nil {
			t.Fatalf("%s: %v", tc.format, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: adapter sink output differs from the pre-SDK output\n got %d bytes\nwant %d bytes", tc.format, got.Len(), len(want))
		}
	}
}

// formatSizes encodes every result with both whole-document sinks and
// records each document's size under "format/experiment".
type formatSizes struct {
	discardSink
	sizes map[string]int
}

func (s *formatSizes) Result(ev ResultEvent) error {
	for format, sink := range map[string]func(io.Writer) Sink{"csv": CSVSink, "json": JSONSink} {
		var buf bytes.Buffer
		if err := sink(&buf).(ResultSink).Result(ev); err != nil {
			return fmt.Errorf("%s: %w", format, err)
		}
		s.sizes[format+"/"+ev.Experiment] = buf.Len()
	}
	return nil
}

// TestAllFormats: every registered experiment must encode as CSV and JSON
// through the adapter sinks (the uniform -format contract of cmd/qoebench).
func TestAllFormats(t *testing.T) {
	sess, err := NewSession(WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	sess.scale = core.Scale{Sites: core.QuickScale().Sites[:2], Reps: 2}
	sink := &formatSizes{sizes: map[string]int{}}
	if _, err := sess.Run(context.Background(), sink); err != nil {
		t.Fatal(err)
	}
	for _, name := range sess.Experiments() {
		for _, format := range []string{"csv", "json"} {
			if sink.sizes[format+"/"+name] == 0 {
				t.Errorf("%s: %s produced no output", format, name)
			}
		}
	}
}

// collectSink records every event for structural assertions and can cancel
// the run after the first result.
type collectSink struct {
	rows      []RowEvent
	progress  []ProgressEvent
	results   []ResultEvent
	summaries []SummaryEvent
	onResult  func()
}

func (s *collectSink) Row(ev RowEvent) error { s.rows = append(s.rows, ev); return nil }
func (s *collectSink) Progress(ev ProgressEvent) error {
	s.progress = append(s.progress, ev)
	return nil
}
func (s *collectSink) Summary(ev SummaryEvent) error {
	s.summaries = append(s.summaries, ev)
	return nil
}
func (s *collectSink) Result(ev ResultEvent) error {
	s.results = append(s.results, ev)
	if s.onResult != nil {
		s.onResult()
	}
	return nil
}

// TestSessionStreamsTypedEvents: a run delivers results in selection order,
// rows for every experiment, progress covering every experiment, and exactly
// one summary whose counters are consistent.
func TestSessionStreamsTypedEvents(t *testing.T) {
	sess := newTestSession(t, 3, 2)
	sink := &collectSink{}
	summary, err := sess.Run(context.Background(), sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.results) != len(sessionScenarios) {
		t.Fatalf("results = %d, want %d", len(sink.results), len(sessionScenarios))
	}
	for i, name := range sessionScenarios {
		if sink.results[i].Experiment != name {
			t.Fatalf("result order %v, want %v", sink.results, sessionScenarios)
		}
	}
	if len(sink.rows) == 0 || len(sink.rows) != summary.Rows {
		t.Fatalf("rows delivered %d, summary says %d", len(sink.rows), summary.Rows)
	}
	perExp := map[string]int{}
	for _, r := range sink.rows {
		if r.Index != perExp[r.Experiment] {
			t.Fatalf("row indices of %s not contiguous", r.Experiment)
		}
		perExp[r.Experiment]++
		if len(r.Data) == 0 || (r.Data[0] != '{' && r.Data[0] != '[') {
			t.Fatalf("row data not compact JSON: %q", r.Data)
		}
	}
	for _, name := range sessionScenarios {
		if perExp[name] == 0 {
			t.Fatalf("no rows for %s", name)
		}
	}
	expProgress := 0
	for _, p := range sink.progress {
		if p.Stage == StageExperiment && p.Experiment != "" {
			expProgress++
		}
	}
	if expProgress != len(sessionScenarios) {
		t.Fatalf("experiment progress events = %d, want %d", expProgress, len(sessionScenarios))
	}
	if len(sink.summaries) != 1 || sink.summaries[0] != summary.SummaryEvent {
		t.Fatalf("summary events %v inconsistent with returned summary %v", sink.summaries, summary.SummaryEvent)
	}
	if summary.Experiments != len(sessionScenarios) {
		t.Fatalf("summary experiments = %d", summary.Experiments)
	}
}

// seqDecisionSink records the interleaving of result/decision/row events as
// a flat tag sequence, to pin the delivery order contract.
type seqDecisionSink struct {
	collectSink
	decisions []DecisionEvent
	order     []string
}

func (s *seqDecisionSink) Row(ev RowEvent) error {
	s.order = append(s.order, "row:"+ev.Experiment)
	return s.collectSink.Row(ev)
}

func (s *seqDecisionSink) Result(ev ResultEvent) error {
	s.order = append(s.order, "result:"+ev.Experiment)
	return s.collectSink.Result(ev)
}

func (s *seqDecisionSink) Decision(ev DecisionEvent) error {
	s.order = append(s.order, "decision:"+ev.Experiment)
	s.decisions = append(s.decisions, ev)
	return nil
}

// TestSessionEmitsDecisions: an adaptive experiment delivers one
// DecisionEvent per grid cell to DecisionSink implementors — in grid order,
// after the experiment's ResultEvent and before its rows — and the vote
// accounting shows real savings. Non-adaptive experiments emit none.
func TestSessionEmitsDecisions(t *testing.T) {
	if testing.Short() {
		t.Skip("population-scale run")
	}
	sess, err := NewSession(WithScenarios("table1", "pop-sweep-adaptive"), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	sink := &seqDecisionSink{}
	if _, err := sess.Run(context.Background(), sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.decisions) == 0 {
		t.Fatal("adaptive run delivered no decisions")
	}
	var saved int64
	for i, d := range sink.decisions {
		if d.Experiment != "pop-sweep-adaptive" || d.Index != i {
			t.Fatalf("decision %d addressing: %+v", i, d)
		}
		if d.Cell == "" || d.Outcome == "" || d.Votes <= 0 || d.Budget < d.Votes {
			t.Fatalf("decision %d malformed: %+v", i, d)
		}
		saved += d.Budget - d.Votes
	}
	if saved <= 0 {
		t.Fatal("adaptive decisions report no vote savings")
	}
	// Order: the adaptive experiment's decisions sit between its result and
	// its first row; table1 emits no decisions.
	var resultAt, firstDecision, lastDecision, firstRow int
	resultAt, firstDecision, firstRow = -1, -1, -1
	for i, tag := range sink.order {
		switch tag {
		case "decision:table1":
			t.Fatal("non-adaptive experiment emitted a decision")
		case "result:pop-sweep-adaptive":
			resultAt = i
		case "decision:pop-sweep-adaptive":
			if firstDecision == -1 {
				firstDecision = i
			}
			lastDecision = i
		case "row:pop-sweep-adaptive":
			if firstRow == -1 {
				firstRow = i
			}
		}
	}
	if resultAt == -1 || firstDecision < resultAt || firstRow < lastDecision {
		t.Fatalf("delivery order violated: %v", sink.order)
	}
}

// TestSessionRunCanceledMidBatch: cancelling the context from inside the
// sink (after the first result) aborts the rest of the batch with ctx.Err(),
// and a fresh session afterwards runs to completion — no shared state is
// corrupted by the aborted run.
func TestSessionRunCanceledMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &collectSink{onResult: cancel}
	sess := newTestSession(t, 5, 1)
	_, err := sess.Run(ctx, sink)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if len(sink.results) == 0 {
		t.Fatal("expected at least the first result before cancellation")
	}
	var sawCanceled bool
	for _, r := range sink.results {
		if errors.Is(r.Err, context.Canceled) {
			sawCanceled = true
		}
	}
	if !sawCanceled {
		t.Fatal("no experiment was marked cancelled")
	}

	fresh := newTestSession(t, 5, 1)
	if _, err := fresh.Run(context.Background(), &collectSink{}); err != nil {
		t.Fatalf("fresh run after cancellation failed: %v", err)
	}
}

// failingSink errors from one chosen method (after an optional number of
// successful calls) and records every call that reaches it afterwards — the
// disconnecting-HTTP-client stand-in for the sink-error contract tests.
type failingSink struct {
	collectSink
	failOn     string // "row", "progress" or "summary"
	okCalls    int    // calls of the failing method that succeed first
	err        error
	callsAfter int // any sink calls delivered after the error fired
	fired      bool
}

func (s *failingSink) tick(method string) error {
	if s.fired {
		s.callsAfter++
		return nil
	}
	if method == s.failOn {
		if s.okCalls > 0 {
			s.okCalls--
			return nil
		}
		s.fired = true
		return s.err
	}
	return nil
}

func (s *failingSink) Row(ev RowEvent) error {
	if err := s.tick("row"); err != nil {
		return err
	}
	return s.collectSink.Row(ev)
}

func (s *failingSink) Progress(ev ProgressEvent) error {
	if err := s.tick("progress"); err != nil {
		return err
	}
	return s.collectSink.Progress(ev)
}

func (s *failingSink) Summary(ev SummaryEvent) error {
	if err := s.tick("summary"); err != nil {
		return err
	}
	return s.collectSink.Summary(ev)
}

// TestSinkErrorAbortsRun: an error from any Sink method — Row, Progress, or
// Summary — aborts the run, is returned from Run by identity (errors.Is),
// and silences the sink: no further events are delivered after the failing
// call. This is the contract the HTTP server relies on when a streaming
// client disconnects mid-run.
func TestSinkErrorAbortsRun(t *testing.T) {
	for _, failOn := range []string{"row", "progress", "summary"} {
		t.Run(failOn, func(t *testing.T) {
			sinkErr := errors.New("client went away: " + failOn)
			sink := &failingSink{failOn: failOn, err: sinkErr}
			sess := newTestSession(t, 6, 1)
			_, err := sess.Run(context.Background(), sink)
			if !errors.Is(err, sinkErr) {
				t.Fatalf("Run returned %v, want the sink error %v", err, sinkErr)
			}
			if !sink.fired {
				t.Fatal("sink never failed — test exercised nothing")
			}
			if sink.callsAfter != 0 {
				t.Fatalf("%d sink calls delivered after the error — a failed sink must go silent", sink.callsAfter)
			}
		})
	}
}

// TestSinkErrorSkipsRemainingExperiments: a Row error during the first
// experiment cancels the batch, so later experiments are never delivered —
// their results (and rows) stay off the sink entirely rather than running to
// completion against a dead consumer.
func TestSinkErrorSkipsRemainingExperiments(t *testing.T) {
	sinkErr := errors.New("sink full")
	// Let the first experiment's first row through, then fail on the second:
	// the abort happens mid-stream, not at a tidy boundary.
	sink := &failingSink{failOn: "row", okCalls: 1, err: sinkErr}
	sess := newTestSession(t, 6, 1)
	_, err := sess.Run(context.Background(), sink)
	if !errors.Is(err, sinkErr) {
		t.Fatalf("Run returned %v, want the sink error", err)
	}
	for _, r := range sink.results {
		if r.Experiment != sessionScenarios[0] {
			t.Fatalf("result for %s delivered after the sink failed", r.Experiment)
		}
	}
	for _, r := range sink.rows {
		if r.Experiment != sessionScenarios[0] {
			t.Fatalf("row for %s delivered after the sink failed", r.Experiment)
		}
	}
	if len(sink.summaries) != 0 {
		t.Fatal("summary delivered to a failed sink")
	}
}

// TestNewSessionValidation: option errors surface at construction, including
// the registry's did-you-mean suggestion for mistyped experiment names.
func TestNewSessionValidation(t *testing.T) {
	if _, err := NewSession(WithScenarios("fig7")); err == nil || !strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("NewSession(fig7) = %v, want did-you-mean error", err)
	}
	if _, err := NewSession(WithScale(Scale("huge"))); err == nil {
		t.Fatal("unknown scale should fail")
	}
	if _, err := NewSession(WithParallelism(-1)); err == nil {
		t.Fatal("negative parallelism should fail")
	}
	if _, err := ParseScale("paper"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseScale("galactic"); err == nil {
		t.Fatal("ParseScale should reject unknown names")
	}
	sess, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Experiments(); len(got) != len(ExperimentNames()) {
		t.Fatalf("default selection = %v, want the full registry", got)
	}
	if sess.Parallelism() < 1 {
		t.Fatalf("parallelism = %d, want >= 1 (resolved default)", sess.Parallelism())
	}
}
