package serve

// Tests of the /metrics surface as a whole: every number is per-server, the
// Prometheus view is well-formed and agrees with the JSON view, and the
// metrics reference in EXPERIMENTS.md lists exactly what a server registers.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/telemetry"
	"repro/internal/testlog"
	"repro/pkg/qoe"
)

// newFullMetricsServer boots a server with every optional metric source
// mounted — a disk store, a tracer and a fabric coordinator over one real
// worker — and serves one run cold and once more from RAM, so the counters
// are not all zero.
func newFullMetricsServer(t *testing.T) (*Server, string) {
	t.Helper()
	_, worker := newTraceWorker(t, nil)
	fab, err := fabric.New(fabric.Config{Workers: []string{worker.URL}, Backoff: time.Millisecond, Logger: testlog.New(t)})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, StoreDir: t.TempDir(), Tracer: telemetry.New(telemetry.Config{}), Fabric: fab}, nil)
	for i := 0; i < 2; i++ {
		if code, body := get(t, ts.URL+"/v1/run?experiments=table1&scale=quick&seed=1"); code != http.StatusOK {
			t.Fatalf("run %d = %d %s", i, code, body)
		}
	}
	return s, ts.URL
}

// TestAdaptiveCountersArePerServer: two servers in one process each count
// only the adaptive studies they ran themselves.
func TestAdaptiveCountersArePerServer(t *testing.T) {
	_, a := newTestServer(t, Config{Workers: 1}, nil)
	_, b := newTestServer(t, Config{Workers: 1}, nil)
	if code, body := get(t, a.URL+"/v1/run?experiments="+qoe.StudyPopSweepAdaptive+"&scale=quick&seed=1"); code != http.StatusOK {
		t.Fatalf("adaptive run = %d %s", code, body)
	}
	adaptiveOf := func(url string) (runs, rounds int64) {
		t.Helper()
		var m struct {
			Adaptive struct {
				Runs   int64 `json:"runs"`
				Rounds int64 `json:"rounds"`
			} `json:"adaptive"`
		}
		code, body := get(t, url+"/metrics")
		if code != http.StatusOK || json.Unmarshal(body, &m) != nil {
			t.Fatalf("metrics = %d %s", code, body)
		}
		return m.Adaptive.Runs, m.Adaptive.Rounds
	}
	if runs, rounds := adaptiveOf(a.URL); runs != 1 || rounds <= 0 {
		t.Errorf("server A: adaptive.runs = %d, adaptive.rounds = %d; want 1 and > 0", runs, rounds)
	}
	if runs, _ := adaptiveOf(b.URL); runs != 0 {
		t.Errorf("server B ran no adaptive study but reports adaptive.runs = %d", runs)
	}
}

var promNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// promFamily is one metric family of a parsed exposition.
type promFamily struct {
	help, typ string
	samples   int
}

// parseProm parses Prometheus text exposition strictly. Every family needs
// exactly one # HELP and one # TYPE, both before its samples; names follow
// the grammar; label values are quoted; no sample line repeats. Summary
// samples may carry the _sum and _count suffixes of their family. It
// returns the families and the values of the unlabelled samples.
func parseProm(t *testing.T, text string) (map[string]*promFamily, map[string]float64) {
	t.Helper()
	fams := map[string]*promFamily{}
	values := map[string]float64{}
	seen := map[string]bool{}
	family := func(name string) *promFamily {
		if !promNameRE.MatchString(name) {
			t.Fatalf("metric name %q outside the grammar", name)
		}
		if fams[name] == nil {
			fams[name] = &promFamily{}
		}
		return fams[name]
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			f := family(name)
			if f.help != "" || f.samples > 0 || help == "" {
				t.Fatalf("# HELP for %s repeated, empty or after its samples: %q", name, line)
			}
			f.help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			f := family(name)
			if f.typ != "" || f.samples > 0 || !map[string]bool{"counter": true, "gauge": true, "summary": true}[typ] {
				t.Fatalf("# TYPE for %s repeated, unknown or after its samples: %q", name, line)
			}
			f.typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") || seen[line] {
			t.Fatalf("stray comment or repeated sample line %q", line)
		}
		seen[line] = true
		series, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("sample line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample value in %q: %v", line, err)
		}
		name, labels, labelled := strings.Cut(series, "{")
		if labelled {
			body, ok := strings.CutSuffix(labels, "}")
			if !ok {
				t.Fatalf("unterminated label set in %q", line)
			}
			for _, pair := range strings.Split(body, ",") {
				k, lv, _ := strings.Cut(pair, "=")
				if !promNameRE.MatchString(k) || len(lv) < 2 || lv[0] != '"' || lv[len(lv)-1] != '"' {
					t.Fatalf("label %q in %q is not name=\"quoted value\"", pair, line)
				}
			}
		} else {
			values[name] = v
		}
		f := fams[name]
		if f == nil {
			for _, suffix := range []string{"_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && fams[base] != nil && fams[base].typ == "summary" {
					f = fams[base]
				}
			}
		}
		if f == nil || f.help == "" || f.typ == "" {
			t.Fatalf("sample %q precedes its family's # HELP and # TYPE", line)
		}
		f.samples++
	}
	for name, f := range fams {
		if f.help == "" || f.typ == "" || f.samples == 0 {
			t.Errorf("family %s incomplete: help=%q type=%q samples=%d", name, f.help, f.typ, f.samples)
		}
	}
	return fams, values
}

// jsonPath reads a dotted path out of a decoded JSON object.
func jsonPath(m map[string]any, path string) (any, bool) {
	head, rest, nested := strings.Cut(path, ".")
	v, ok := m[head]
	if !ok || !nested {
		return v, ok
	}
	sub, ok := v.(map[string]any)
	if !ok {
		return nil, false
	}
	return jsonPath(sub, rest)
}

// TestPromExpositionStrict: the Prometheus view of a fully mounted server
// parses strictly, and every counter and gauge of the JSON view appears in
// it under its path joined by "_", with the same type and value.
func TestPromExpositionStrict(t *testing.T) {
	s, url := newFullMetricsServer(t)
	_, body := get(t, url+"/metrics")
	var view map[string]any
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("JSON view: %v\n%s", err, body)
	}
	code, prom := get(t, url+"/metrics?format=prom")
	if code != http.StatusOK {
		t.Fatalf("prom metrics = %d", code)
	}
	fams, values := parseProm(t, string(prom))

	plain := 0
	s.met.reg.Each(func(path string, kind telemetry.Kind, _ string) {
		if kind == telemetry.KindJSON {
			return
		}
		plain++
		name := "qoed_" + strings.ReplaceAll(path, ".", "_")
		jv, ok := jsonPath(view, path)
		if !ok {
			t.Errorf("%s missing from the JSON view", path)
			return
		}
		pv, ok := values[name]
		if !ok || fams[name].typ != string(kind) {
			t.Errorf("%s: no unlabelled prom sample %s of type %s", path, name, kind)
			return
		}
		same := jv == pv
		if path == "uptime_seconds" {
			same = pv >= jv.(float64) // the prom view rendered later
		}
		if !same {
			t.Errorf("%s: JSON %v, prom %s %v", path, jv, name, pv)
		}
	})
	// Every unlabelled sample is one of those counters and gauges, apart
	// from the build-info gauge, whose labels carry its content.
	if len(values) != plain {
		t.Errorf("prom view has %d unlabelled samples, registry %d counters and gauges", len(values), plain)
	}
	for _, name := range []string{"qoed_fabric_studies_reduced", "qoed_adaptive_runs", "qoed_store_entries", "qoed_traces_retained", "qoed_request_latency_seconds", "qoed_build_info"} {
		if fams[name] == nil {
			t.Errorf("family %s missing", name)
		}
	}
}

// metricsTableRow matches one row of the metrics reference table in
// EXPERIMENTS.md: | `name` | kind | help |.
var metricsTableRow = regexp.MustCompile("^\\| `[^`]+` \\| \\w+ \\| .+ \\|$")

// TestMetricsReferenceDocumented: the metrics reference table in
// EXPERIMENTS.md lists every metric a fully mounted server registers, with
// its kind and help line, and nothing else.
func TestMetricsReferenceDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Metrics reference\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no \"## Metrics reference\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if metricsTableRow.MatchString(line) {
			documented[line] = true
		}
	}

	s, _ := newFullMetricsServer(t)
	registered := map[string]bool{}
	s.met.reg.Each(func(name string, kind telemetry.Kind, help string) {
		registered[fmt.Sprintf("| `%s` | %s | %s |", name, kind, help)] = true
	})
	for row := range registered {
		if !documented[row] {
			t.Errorf("registered but not in the EXPERIMENTS.md table: %s", row)
		}
	}
	for row := range documented {
		if !registered[row] {
			t.Errorf("in the EXPERIMENTS.md table but not registered: %s", row)
		}
	}
}
