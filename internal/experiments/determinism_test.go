package experiments

import (
	"bytes"
	"context"
	"encoding/csv"
	"testing"

	"repro/internal/core"
)

func tinyOpts() Options {
	return Options{Scale: core.Scale{Sites: core.QuickScale().Sites[:2], Reps: 2}, Seed: 77}
}

// TestFig4Deterministic: identical options must produce byte-identical
// rendered output — the bit-reproducibility promise of DESIGN.md.
func TestFig4Deterministic(t *testing.T) {
	render := func() string {
		res := runFresh[Fig4Result](t, "fig4", tinyOpts())
		var buf bytes.Buffer
		res.Render(&buf)
		return buf.String()
	}
	if render() != render() {
		t.Fatal("Fig4 output not reproducible")
	}
}

func TestFig5Deterministic(t *testing.T) {
	render := func() string {
		res := runFresh[Fig5Result](t, "fig5", tinyOpts())
		var buf bytes.Buffer
		res.Render(&buf)
		return buf.String()
	}
	if render() != render() {
		t.Fatal("Fig5 output not reproducible")
	}
}

func TestFig6Deterministic(t *testing.T) {
	render := func() string {
		res := runFresh[Fig6Result](t, "fig6", tinyOpts())
		var buf bytes.Buffer
		res.Render(&buf)
		return buf.String()
	}
	if render() != render() {
		t.Fatal("Fig6 output not reproducible")
	}
}

func TestTable3Deterministic(t *testing.T) {
	a := Table3(5)
	b := Table3(5)
	for i := range a.Funnels {
		if a.Funnels[i] != b.Funnels[i] {
			t.Fatal("Table3 funnels not reproducible")
		}
	}
	// Different seed -> (almost surely) different funnel for the crowd.
	c := Table3(6)
	same := true
	for i := range a.Funnels {
		if a.Funnels[i] != c.Funnels[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should perturb the funnel")
	}
}

// TestSeedChangesVotesNotShapes: a different seed shifts individual numbers
// but preserves the qualitative Figure 4 ordering on MSS.
func TestSeedChangesVotesNotShapes(t *testing.T) {
	opts := tinyOpts()
	opts.Seed = 101
	a := runFresh[Fig4Result](t, "fig4", opts)
	opts.Seed = 202
	b := runFresh[Fig4Result](t, "fig4", opts)
	for _, res := range []Fig4Result{a, b} {
		for _, s := range res.Shares {
			if s.Network == "MSS" && s.Pair.A == "QUIC" && s.Pair.B == "TCP" {
				if s.ShareA <= s.ShareB {
					t.Fatalf("seed variant lost the MSS QUIC>TCP shape: %+v", s)
				}
			}
		}
	}
}

// TestRegistryCoversAllExperiments pins the registry contents and canonical
// order that `qoebench all` executes.
func TestRegistryCoversAllExperiments(t *testing.T) {
	want := []string{"table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6",
		"ablate-iw", "ablate-pacing", "ablate-hol", "ext-0rtt",
		"pop-ab", "pop-rating", "pop-sweep", "pop-sweep-adaptive"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registered = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered = %v, want %v", got, want)
		}
	}
	if _, ok := Lookup("fig5"); !ok {
		t.Fatal("lookup failed for fig5")
	}
	if _, err := Select("all"); err != nil {
		t.Fatal(err)
	}
	if _, err := Select("no-such"); err == nil {
		t.Fatal("Select should reject unknown names")
	}
}

// TestRegisteredExperimentsDeterministic extends the per-figure determinism
// tests to the registry contract: every experiment's Run against a shared
// prewarmed testbed must render byte-identically across repeated runs, in
// all three output formats, and its CSV must parse as a header plus at least
// one record of the header's width.
func TestRegisteredExperimentsDeterministic(t *testing.T) {
	opts := tinyOpts()
	// Figure 6 correlates over at least three sites; at two its document
	// would be a bare header.
	opts.Scale.Sites = core.QuickScale().Sites[:3]
	encode := func() map[string]string {
		tb := core.NewTestbed(opts.Scale, opts.Seed)
		out := map[string]string{}
		for _, e := range All() {
			res, err := e.Run(context.Background(), tb, opts)
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			var buf bytes.Buffer
			res.Render(&buf)
			var doc bytes.Buffer
			if err := res.CSV(&doc); err != nil {
				t.Fatalf("%s: CSV: %v", e.Name(), err)
			}
			// The reader's default FieldsPerRecord rejects any record
			// whose width differs from the header's.
			records, err := csv.NewReader(bytes.NewReader(doc.Bytes())).ReadAll()
			if err != nil {
				t.Fatalf("%s: CSV: %v", e.Name(), err)
			}
			if len(records) < 2 {
				t.Fatalf("%s: CSV has %d records, want a header and at least one row", e.Name(), len(records))
			}
			buf.Write(doc.Bytes())
			if err := res.JSON(&buf); err != nil {
				t.Fatalf("%s: JSON: %v", e.Name(), err)
			}
			out[e.Name()] = buf.String()
		}
		return out
	}
	a, b := encode(), encode()
	for name, want := range a {
		if want == "" {
			t.Fatalf("%s encoded empty output", name)
		}
		if b[name] != want {
			t.Fatalf("%s not reproducible across runs", name)
		}
	}
}
