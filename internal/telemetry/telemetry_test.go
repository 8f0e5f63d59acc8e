package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanLifecycleAndSnapshot(t *testing.T) {
	tr := New(Config{})
	root := tr.Start("a1b2", "run", 0)
	root.Attr("source", "cold")
	child := tr.Start("a1b2", "simulate", root.ID())
	child.End()
	root.End()

	dump, ok := tr.Snapshot("a1b2")
	if !ok {
		t.Fatal("trace not found")
	}
	if len(dump.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(dump.Spans))
	}
	// Sorted by start time: root first.
	if dump.Spans[0].Name != "run" || dump.Spans[1].Name != "simulate" {
		t.Fatalf("unexpected span order: %q, %q", dump.Spans[0].Name, dump.Spans[1].Name)
	}
	if dump.Spans[1].ParentID != dump.Spans[0].SpanID {
		t.Fatalf("child parent %d != root id %d", dump.Spans[1].ParentID, dump.Spans[0].SpanID)
	}
	if got := dump.Spans[0].Attrs.Get("source"); got != "cold" {
		t.Fatalf("root attr source = %q, want cold", got)
	}
	if _, ok := tr.Snapshot("missing"); ok {
		t.Fatal("Snapshot(missing) reported ok")
	}
}

func TestNilTracerAndSpanSafe(t *testing.T) {
	var tr *Tracer
	s := tr.Start("id", "x", 0)
	if s != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	s.Attr("k", "v") // must not panic
	s.End()
	s.EndErr(fmt.Errorf("boom"))
	if s.ID() != 0 {
		t.Fatal("nil span has nonzero ID")
	}
	tr.Merge("id", "origin", []SpanRecord{{SpanID: 1}})
	tr.Record("id", "x", 0, time.Now(), time.Now())
	if _, ok := tr.Snapshot("id"); ok {
		t.Fatal("nil tracer snapshot ok")
	}
	var tc TraceContext // zero context: nil tracer
	tc.Start("x").End()
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	tr := New(Config{})
	s := tr.Start("t1", "x", 0)
	s.End()
	s.End()
	dump, _ := tr.Snapshot("t1")
	if len(dump.Spans) != 1 {
		t.Fatalf("double End recorded %d spans, want 1", len(dump.Spans))
	}
}

func TestSpanErrAndRecord(t *testing.T) {
	tr := New(Config{})
	s := tr.Start("t1", "dispatch", 0)
	s.EndErr(fmt.Errorf("worker down"))
	start := time.Now().Add(-time.Second)
	id := tr.Record("t1", "queue_wait", 7, start, time.Now(), Attr{Key: "depth", Value: "3"})
	if id == 0 {
		t.Fatal("Record returned zero span id")
	}
	dump, _ := tr.Snapshot("t1")
	if len(dump.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(dump.Spans))
	}
	var sawErr, sawQueue bool
	for _, sp := range dump.Spans {
		if sp.Name == "dispatch" && sp.Err == "worker down" {
			sawErr = true
		}
		if sp.Name == "queue_wait" && sp.ParentID == 7 && sp.Attrs.Get("depth") == "3" && sp.DurNS >= int64(time.Second) {
			sawQueue = true
		}
	}
	if !sawErr || !sawQueue {
		t.Fatalf("missing spans: err=%v queue=%v in %+v", sawErr, sawQueue, dump.Spans)
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(Config{MaxTraces: 2})
	for _, id := range []string{"t1", "t2", "t3"} {
		tr.Start(id, "x", 0).End()
	}
	if _, ok := tr.Snapshot("t1"); ok {
		t.Fatal("oldest trace t1 survived eviction")
	}
	for _, id := range []string{"t2", "t3"} {
		if _, ok := tr.Snapshot(id); !ok {
			t.Fatalf("trace %s evicted early", id)
		}
	}
	if tr.Traces() != 2 {
		t.Fatalf("Traces() = %d, want 2", tr.Traces())
	}
}

func TestMaxSpansDrops(t *testing.T) {
	tr := New(Config{MaxSpans: 3})
	for i := 0; i < 5; i++ {
		tr.Start("t1", "s", 0).End()
	}
	dump, _ := tr.Snapshot("t1")
	if len(dump.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(dump.Spans))
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped() = %d, want 2", tr.Dropped())
	}
}

func TestMergeDedupeAndOrigin(t *testing.T) {
	tr := New(Config{})
	tr.Start("t1", "coordinator", 0).End()
	workerSpans := []SpanRecord{
		{TraceID: "t1", SpanID: 1, Name: "simulate", StartNS: 10},
		{TraceID: "t1", SpanID: 2, Name: "shard", StartNS: 20},
	}
	tr.Merge("t1", "http://w1", workerSpans)
	tr.Merge("t1", "http://w1", workerSpans) // re-collect must not duplicate
	tr.Merge("t1", "http://w2", []SpanRecord{{TraceID: "t1", SpanID: 1, Name: "simulate", StartNS: 30}})

	dump, _ := tr.Snapshot("t1")
	if len(dump.Spans) != 4 {
		t.Fatalf("got %d spans, want 4 (1 local + 2 w1 + 1 w2): %+v", len(dump.Spans), dump.Spans)
	}
	origins := map[string]int{}
	for _, sp := range dump.Spans {
		origins[sp.Origin]++
	}
	if origins["http://w1"] != 2 || origins["http://w2"] != 1 || origins[""] != 1 {
		t.Fatalf("origin counts wrong: %v", origins)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	id := strings.Repeat("ab", 16)
	h := FormatTraceparent(id, 0xdeadbeef)
	if len(h) != 55 {
		t.Fatalf("header length %d, want 55: %q", len(h), h)
	}
	gotID, gotParent, ok := ParseTraceparent(h)
	if !ok || gotID != id || gotParent != 0xdeadbeef {
		t.Fatalf("round trip: id=%q parent=%x ok=%v", gotID, gotParent, ok)
	}
	for _, bad := range []string{
		"",
		"00-short-1-01",
		"01-" + id + "-0000000000000001-01", // we emit version 00 only
		"00-" + strings.Repeat("ZZ", 16) + "-0000000000000001-01",
		"00-" + id + "-00000000000000ZZ-01",
		"00-" + id + "_0000000000000001-01",
		"00-" + id + "-0000000000000001-zz", // flags must be lowercase hex
		"00-" + id + "-0000000000000001-0A",
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("ParseTraceparent(%q) accepted", bad)
		}
	}
}

// validTraceparent is the header grammar ParseTraceparent accepts, written
// independently of the parser: version 00 and lowercase hex fields.
var validTraceparent = regexp.MustCompile(`^00-[0-9a-f]{32}-[0-9a-f]{16}-[0-9a-f]{2}$`)

// FuzzParseTraceparent: the parser reads a header off the shard wire, so it
// must never panic, and whatever it accepts must be a well-formed header
// whose trace ID and parent re-format to the same bytes.
func FuzzParseTraceparent(f *testing.F) {
	// The run ID of {pop-ab, quick, seed 1}: serve's sha256 of the canonical
	// tuple key "v1|scale=quick|seed=1|experiments=pop-ab".
	const runID = "d6ce7dab035706b011e104b7f4ee0b8e"
	f.Add(FormatTraceparent(runID, 0x2a))
	f.Add(FormatTraceparent(runID, 0xffffffffffffffff))
	f.Add("00-" + runID + "-000000000000002a-zz")
	f.Fuzz(func(t *testing.T, h string) {
		id, parent, ok := ParseTraceparent(h)
		if !ok {
			if id != "" || parent != 0 {
				t.Fatalf("rejected %q but returned id=%q parent=%x", h, id, parent)
			}
			return
		}
		if !validTraceparent.MatchString(h) {
			t.Fatalf("accepted malformed header %q", h)
		}
		// Only a 32-lowercase-hex trace ID formats into a valid header.
		got := FormatTraceparent(id, parent)
		if !validTraceparent.MatchString(got) {
			t.Fatalf("trace ID %q is not 32 lowercase hex", id)
		}
		if got[:52] != h[:52] {
			t.Fatalf("re-format %q does not match %q", got, h)
		}
	})
}

func TestTraceContextFlow(t *testing.T) {
	tr := New(Config{})
	tc := TraceContext{Tracer: tr, TraceID: "t9", Parent: 42}
	ctx := NewContext(t.Context(), tc)
	got := FromContext(ctx)
	if got.Tracer != tr || got.TraceID != "t9" || got.Parent != 42 {
		t.Fatalf("FromContext = %+v", got)
	}
	got.Start("child").End()
	dump, _ := tr.Snapshot("t9")
	if len(dump.Spans) != 1 || dump.Spans[0].ParentID != 42 {
		t.Fatalf("context span wrong: %+v", dump.Spans)
	}
	if FromContext(t.Context()).Tracer != nil {
		t.Fatal("empty context produced a tracer")
	}
}

func TestSpanNDJSONLog(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{LogW: &buf})
	s := tr.Start("t1", "run", 0)
	s.Attr("source", "mem")
	s.End()
	tr.Start("t1", "publish", s.ID()).End()

	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		var rec SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d not valid JSON: %v: %s", lines, err, sc.Text())
		}
		if rec.TraceID != "t1" {
			t.Fatalf("line %d trace %q", lines, rec.TraceID)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("got %d NDJSON lines, want 2", lines)
	}
}

func TestAttrsJSONRoundTrip(t *testing.T) {
	in := Attrs{{Key: "worker", Value: "http://w1"}, {Key: "attempt", Value: "2"}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"worker":"http://w1","attempt":"2"}` {
		t.Fatalf("marshal: %s", b)
	}
	var out Attrs
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Get("worker") != "http://w1" || out.Get("attempt") != "2" {
		t.Fatalf("unmarshal: %+v", out)
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	set := NewLatencySet("mem", "cold")
	for i := 0; i < 1000; i++ {
		set.Observe("mem", 100*time.Microsecond)
	}
	set.Observe("cold", 2*time.Second)
	set.Observe("unknown", time.Hour) // dropped

	snap := set.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot classes %v, want mem and cold only", snap)
	}
	mem := snap["mem"]
	if mem.Count != 1000 {
		t.Fatalf("mem count %d", mem.Count)
	}
	// Log-domain bins are ~12% wide; accept a generous band.
	if mem.P50 < 50e-6 || mem.P50 > 200e-6 {
		t.Fatalf("mem p50 %g out of band", mem.P50)
	}
	cold := snap["cold"]
	if cold.Count != 1 || cold.P99 < 1 || cold.P99 > 4 {
		t.Fatalf("cold stats %+v", cold)
	}
	empty := NewLatencySet("x").Snapshot()["x"]
	if empty.Count != 0 || empty.P50 != 0 {
		t.Fatalf("empty class nonzero: %+v", empty)
	}
}

// TestRegistryRendersBothViews: one set of descriptors renders the JSON view
// in its established layout (name order, nested mounts, integral gauges as
// integers) and the Prometheus view with # HELP and # TYPE per family.
func TestRegistryRendersBothViews(t *testing.T) {
	var r Registry
	r.Counter("runs_accepted", "Accepted runs.").Add(7)
	r.Gauge("cache_bytes", "Resident bytes.", func() float64 { return 64 << 20 })
	r.Gauge("cache_hit_rate", "Hit share.", func() float64 { return 0.5 })
	r.Gauge("broken", "A gauge that cannot be JSON.", func() float64 { return math.NaN() })
	r.Value("build_info", "Build identity.", func() any { return map[string]string{"version": "v1"} })
	var sub Registry
	sub.Counter("shard_retries", "Retries.").Add(3)
	r.Mount("fabric", &sub)

	want := `{"broken": null, "build_info": {"version":"v1"}, "cache_bytes": 67108864, "cache_hit_rate": 0.5, "fabric": {"shard_retries": 3}, "runs_accepted": 7}`
	if got := string(r.AppendJSON(nil)); got != want {
		t.Fatalf("JSON view:\n got %s\nwant %s", got, want)
	}
	out := string(r.AppendProm(nil, "qoed"))
	for _, want := range []string{
		"# HELP qoed_runs_accepted Accepted runs.\n# TYPE qoed_runs_accepted counter\nqoed_runs_accepted 7\n",
		"# HELP qoed_cache_hit_rate Hit share.\n# TYPE qoed_cache_hit_rate gauge\nqoed_cache_hit_rate 0.5\n",
		"# TYPE qoed_fabric_shard_retries counter\nqoed_fabric_shard_retries 3\n",
		"qoed_broken NaN\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "build_info") {
		t.Fatalf("JSON-only value leaked into exposition:\n%s", out)
	}
	var names []string
	r.Each(func(name string, kind Kind, help string) { names = append(names, name+":"+string(kind)) })
	if got, want := strings.Join(names, " "), "broken:gauge build_info:json cache_bytes:gauge cache_hit_rate:gauge fabric.shard_retries:counter runs_accepted:counter"; got != want {
		t.Fatalf("Each = %s, want %s", got, want)
	}
}

// TestRegistryRejectsBadRegistrations: duplicate names, names outside the
// Prometheus grammar and missing or multi-line help are programming errors.
func TestRegistryRejectsBadRegistrations(t *testing.T) {
	for name, register := range map[string]func(r *Registry){
		"duplicate":     func(r *Registry) { r.Counter("x", "h"); r.Gauge("x", "h", nil) },
		"dotted":        func(r *Registry) { r.Counter("weird.key", "h") },
		"leading digit": func(r *Registry) { r.Counter("1x", "h") },
		"empty":         func(r *Registry) { r.Mount("", new(Registry)) },
		"no help":       func(r *Registry) { r.Counter("x", "") },
		"two lines":     func(r *Registry) { r.Counter("x", "a\nb") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s registration did not panic", name)
				}
			}()
			register(new(Registry))
		}()
	}
}

func TestPromExposition(t *testing.T) {
	set := NewLatencySet("mem", "disk")
	set.Observe("mem", time.Millisecond)
	out := string(set.AppendProm(nil, "qoed_request_latency_seconds"))
	for _, want := range []string{
		"# TYPE qoed_request_latency_seconds summary",
		`qoed_request_latency_seconds{class="mem",quantile="0.5"} `,
		`qoed_request_latency_seconds_count{class="mem"} 1`,
		// An empty class has no quantiles, not instant ones.
		`qoed_request_latency_seconds{class="disk",quantile="0.5"} NaN` + "\n",
		`qoed_request_latency_seconds{class="disk",quantile="0.99"} NaN` + "\n",
		`qoed_request_latency_seconds_sum{class="disk"} 0` + "\n",
		`qoed_request_latency_seconds_count{class="disk"} 0` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}

	out = string(AppendPromBuildInfo(nil, "qoed", Build{Version: "v1", Revision: "abc", GoVersion: "go1.24"}))
	if !strings.Contains(out, `qoed_build_info{version="v1",revision="abc",go="go1.24"} 1`) {
		t.Fatalf("build info exposition wrong:\n%s", out)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New(Config{MaxTraces: 8, MaxSpans: 10000})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("trace%d", g%4)
			for i := 0; i < 100; i++ {
				s := tr.Start(id, "op", 0)
				s.Attr("i", "x")
				s.End()
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for g := 0; g < 4; g++ {
		dump, ok := tr.Snapshot(fmt.Sprintf("trace%d", g))
		if !ok {
			t.Fatalf("trace%d missing", g)
		}
		total += len(dump.Spans)
	}
	if total != 800 {
		t.Fatalf("total spans %d, want 800", total)
	}
}

func TestBuildInfo(t *testing.T) {
	b := BuildInfo()
	if b.Version == "" || b.Revision == "" {
		t.Fatalf("build info empty: %+v", b)
	}
	if b != BuildInfo() {
		t.Fatal("BuildInfo not stable")
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hello", "k", "v")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json log line invalid: %v: %s", err, buf.String())
	}
	if rec["msg"] != "hello" || rec["k"] != "v" {
		t.Fatalf("record: %v", rec)
	}
	if _, err := NewLogger(&buf, "loud", "text"); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Fatal("bad format accepted")
	}
}

func BenchmarkSpanStartEnd(b *testing.B) {
	tr := New(Config{MaxSpans: 1 << 20})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Start("bench", "op", 0)
		s.Attr("class", "mem")
		s.End()
	}
}
