package qoe

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runStream runs the given scenarios sequentially through a StreamSink and
// returns the raw NDJSON bytes.
func runStream(t *testing.T, seed int64, scenarios ...string) []byte {
	t.Helper()
	sess, err := NewSession(WithScenarios(scenarios...), WithSeed(seed), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sess.Run(context.Background(), StreamSink(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamSinkWireFormat: every line is a standalone JSON object carrying
// schema_version 1 and a known type; rows precede the single trailing
// summary, and the summary's row count matches the rows emitted.
func TestStreamSinkWireFormat(t *testing.T) {
	out := runStream(t, 1, "table1", "table2")
	sc := bufio.NewScanner(bytes.NewReader(out))
	var types []string
	rows := 0
	var summaryRows int
	for sc.Scan() {
		var ev struct {
			Schema     int             `json:"schema_version"`
			Type       string          `json:"type"`
			Experiment string          `json:"experiment"`
			Data       json.RawMessage `json:"data"`
			Rows       int             `json:"rows"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("unparseable stream line %q: %v", sc.Text(), err)
		}
		if ev.Schema != SchemaVersion {
			t.Fatalf("line %q carries schema_version %d, want %d", sc.Text(), ev.Schema, SchemaVersion)
		}
		switch ev.Type {
		case "row":
			rows++
			if ev.Experiment == "" || len(ev.Data) == 0 {
				t.Fatalf("row line missing experiment or data: %q", sc.Text())
			}
		case "progress":
		case "summary":
			summaryRows = ev.Rows
		default:
			t.Fatalf("unknown event type %q", ev.Type)
		}
		types = append(types, ev.Type)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("stream carried no rows")
	}
	if types[len(types)-1] != "summary" {
		t.Fatalf("stream must end with the summary, got %v", types)
	}
	if summaryRows != rows {
		t.Fatalf("summary rows %d != emitted rows %d", summaryRows, rows)
	}
}

// TestStreamDeterministic: a sequential stream is byte-identical across
// runs for a fixed configuration — the property the stream golden pins.
func TestStreamDeterministic(t *testing.T) {
	a := runStream(t, 7, "table1", "ext-0rtt")
	b := runStream(t, 7, "table1", "ext-0rtt")
	if !bytes.Equal(a, b) {
		t.Fatal("stream output not reproducible across runs")
	}
}

// TestDecodeStreamRoundTrip: decoding a streamed run and re-encoding it
// through a fresh StreamSink reproduces the original bytes, and the returned
// summary matches the stream's summary line — the loss-free property the
// remote client relies on.
func TestDecodeStreamRoundTrip(t *testing.T) {
	orig := runStream(t, 11, "table1", "table2")
	var reenc bytes.Buffer
	summary, err := DecodeStream(bytes.NewReader(orig), StreamSink(&reenc))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, reenc.Bytes()) {
		t.Fatalf("decode→re-encode drifted: %d vs %d bytes", len(orig), reenc.Len())
	}
	if summary.Experiments != 2 || summary.Rows == 0 {
		t.Fatalf("decoded summary %+v inconsistent", summary)
	}
}

// FuzzDecodeStream feeds the event-stream decoder arbitrary bytes. It must
// never panic. An accepted stream, re-encoded through StreamSink, must decode
// again and re-encode to the same bytes (a fixpoint), and cutting that
// re-encoding before its summary line is complete (at each line's start and
// middle) must fail with ErrTruncatedStream.
func FuzzDecodeStream(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "table1.stream.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	mid := bytes.IndexByte(golden, '\n') + 10
	if _, err := DecodeStream(bytes.NewReader(golden[:mid]), StreamSink(io.Discard)); !errors.Is(err, ErrTruncatedStream) {
		f.Fatalf("golden stream cut mid-line: got %v, want ErrTruncatedStream", err)
	}
	f.Add(golden)
	f.Add(golden[:mid])

	f.Fuzz(func(t *testing.T, stream []byte) {
		var first bytes.Buffer
		if _, err := DecodeStream(bytes.NewReader(stream), StreamSink(&first)); err != nil {
			return
		}
		enc := first.Bytes()
		var second bytes.Buffer
		if _, err := DecodeStream(bytes.NewReader(enc), StreamSink(&second)); err != nil {
			t.Fatalf("re-encoded stream rejected: %v\n%s", err, enc)
		}
		if !bytes.Equal(second.Bytes(), enc) {
			t.Fatalf("re-encoding is not a fixpoint:\n%s\nvs\n%s", enc, second.Bytes())
		}
		// The last line is the summary, so every cut below leaves it
		// incomplete; len(enc)-2 drops only its closing brace.
		cuts := []int{len(enc) - 2}
		off := 0
		for _, line := range bytes.SplitAfter(enc, []byte("\n")) {
			cuts = append(cuts, off, off+len(line)/2)
			off += len(line)
		}
		for _, c := range cuts {
			if c < 0 || c >= len(enc)-1 {
				continue
			}
			if _, err := DecodeStream(bytes.NewReader(enc[:c]), StreamSink(io.Discard)); !errors.Is(err, ErrTruncatedStream) {
				t.Fatalf("stream cut at %d of %d: got %v, want ErrTruncatedStream", c, len(enc), err)
			}
		}
	})
}

// decisionCollectSink extends collectSink with DecisionSink, recording the
// decision events interleaved position too.
type decisionCollectSink struct {
	collectSink
	decisions []DecisionEvent
}

func (s *decisionCollectSink) Decision(ev DecisionEvent) error {
	s.decisions = append(s.decisions, ev)
	return nil
}

// TestDecodeStreamDecisions: decision lines round-trip losslessly through
// StreamSink → DecodeStream for DecisionSink implementors, and are silently
// skipped for sinks that do not implement the extension — while truly
// unknown line types remain a hard decode error (pinned above).
func TestDecodeStreamDecisions(t *testing.T) {
	decisions := []DecisionEvent{
		{Experiment: "pop-sweep-adaptive", Cell: "LTEx0.25", Index: 0, Outcome: "noticeable",
			Round: 1, Looks: 1, Votes: 780, Budget: 25000, Point: 0.9735897435897436,
			Lo: 0.9551020408163265, Hi: 0.9851343454790823, Level: 0.9696048632218845},
		{Experiment: "pop-sweep-adaptive", Cell: "LTEx4", Index: 4, Outcome: "exhausted",
			Round: 9, Looks: 8, Votes: 25000, Budget: 25000, Point: 0.35,
			Lo: 0.33, Hi: 0.37, Level: 0.95},
	}
	var wire bytes.Buffer
	sink := StreamSink(&wire).(*streamSink)
	for _, d := range decisions {
		if err := sink.Decision(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Summary(SummaryEvent{Experiments: 1}); err != nil {
		t.Fatal(err)
	}

	// Round trip into a DecisionSink implementor: same events, and
	// re-encoding reproduces the original bytes.
	var reenc bytes.Buffer
	replay := StreamSink(&reenc).(*streamSink)
	collector := &decisionCollectSink{}
	if _, err := DecodeStream(bytes.NewReader(wire.Bytes()), collector); err != nil {
		t.Fatal(err)
	}
	if len(collector.decisions) != len(decisions) {
		t.Fatalf("decoded %d decisions, want %d", len(collector.decisions), len(decisions))
	}
	for i, d := range collector.decisions {
		if d != decisions[i] {
			t.Fatalf("decision %d drifted:\n got  %+v\n want %+v", i, d, decisions[i])
		}
	}
	if _, err := DecodeStream(bytes.NewReader(wire.Bytes()), replay); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire.Bytes(), reenc.Bytes()) {
		t.Fatalf("decision decode→re-encode drifted:\n got  %q\n want %q", reenc.Bytes(), wire.Bytes())
	}

	// A sink without the extension skips decision lines and still reaches
	// the summary.
	plain := &collectSink{}
	summary, err := DecodeStream(bytes.NewReader(wire.Bytes()), plain)
	if err != nil {
		t.Fatal(err)
	}
	if summary.Experiments != 1 || len(plain.rows) != 0 {
		t.Fatalf("plain sink replay inconsistent: %+v, %d rows", summary, len(plain.rows))
	}
}

// TestDecodeStreamTruncated: a stream cut off before its summary line — a
// cancelled server-side run or a dropped connection — surfaces as
// ErrTruncatedStream instead of silently succeeding.
func TestDecodeStreamTruncated(t *testing.T) {
	orig := runStream(t, 11, "table1")
	lines := bytes.Split(bytes.TrimSuffix(orig, []byte("\n")), []byte("\n"))
	cut := bytes.Join(lines[:len(lines)-1], []byte("\n")) // drop the summary
	if _, err := DecodeStream(bytes.NewReader(cut), &collectSink{}); err == nil || !errors.Is(err, ErrTruncatedStream) {
		t.Fatalf("DecodeStream(truncated) = %v, want ErrTruncatedStream", err)
	}
	if _, err := DecodeStream(bytes.NewReader([]byte(`{"schema_version":2,"type":"row"}`+"\n")), &collectSink{}); err == nil {
		t.Fatal("unknown schema_version must fail decoding")
	}
	if _, err := DecodeStream(bytes.NewReader([]byte(`{"schema_version":1,"type":"telemetry"}`+"\n")), &collectSink{}); err == nil {
		t.Fatal("unknown event type must fail decoding")
	}
	// Wire corruption is a decode error, NOT truncation: a proxy injecting
	// garbage mid-body must not read as "the run was cancelled server-side".
	corrupt := append(append([]byte{}, lines[0]...), []byte("\n<html>bad gateway</html>\n")...)
	if _, err := DecodeStream(bytes.NewReader(corrupt), &collectSink{}); err == nil || errors.Is(err, ErrTruncatedStream) {
		t.Fatalf("DecodeStream(corrupt) = %v, want a non-truncation decode error", err)
	}
	// A line cut off mid-object is truncation (unexpected EOF).
	if _, err := DecodeStream(bytes.NewReader(orig[:len(orig)/2]), &collectSink{}); err == nil || !errors.Is(err, ErrTruncatedStream) {
		t.Fatalf("DecodeStream(mid-object cut) = %v, want ErrTruncatedStream", err)
	}
}

// TestResolveExperiments: "all" (and the empty selection) expands to the
// registry, explicit names resolve in selection order, and unknown names
// fail with the registry's did-you-mean suggestion.
func TestResolveExperiments(t *testing.T) {
	all, err := ResolveExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(ExperimentNames()) {
		t.Fatalf("all resolved to %d experiments, want %d", len(all), len(ExperimentNames()))
	}
	def, err := ResolveExperiments()
	if err != nil {
		t.Fatal(err)
	}
	if len(def) != len(all) {
		t.Fatalf("empty selection resolved to %d, want the full registry", len(def))
	}
	got, err := ResolveExperiments("table2", "table1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "table2" || got[1] != "table1" {
		t.Fatalf("ResolveExperiments(table2, table1) = %v", got)
	}
	if _, err := ResolveExperiments("fig7"); err == nil || !strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("ResolveExperiments(fig7) = %v, want did-you-mean error", err)
	}
}

// TestRowEventsSingleDocument: an experiment whose JSON encoding is a single
// object (not an array) streams as exactly one row.
func TestRowEventsSingleDocument(t *testing.T) {
	sess, err := NewSession(WithScenarios("pop-sweep"), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		t.Skip("runs a population sweep")
	}
	sink := &collectSink{}
	if _, err := sess.Run(context.Background(), sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.rows) != 1 {
		t.Fatalf("pop-sweep rows = %d, want 1 (single-document result)", len(sink.rows))
	}
	if !json.Valid(sink.rows[0].Data) {
		t.Fatal("row data is not valid JSON")
	}
}
