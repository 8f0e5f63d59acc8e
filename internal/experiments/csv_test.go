package experiments

import (
	"bytes"
	"encoding/csv"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// Shape checks of the machine-readable encoders behind Result.CSV and
// Result.JSON, at determinism_test's two-site scale.

func parseCSV(t *testing.T, b []byte) [][]string {
	t.Helper()
	rows, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

// TestWriteCSV pins the shared encoder's two edges: a failing writer's error
// reaches the caller, and no rows still yield the header.
func TestWriteCSV(t *testing.T) {
	cell := func(s string) []string { return []string{s} }
	boom := errors.New("boom")
	if err := writeCSV(failWriter{boom}, []string{"h"}, []string{"x"}, cell); !errors.Is(err, boom) {
		t.Fatalf("failing writer: err = %v, want %v", err, boom)
	}
	var buf bytes.Buffer
	if err := writeCSV(&buf, []string{"a", "b"}, nil, cell); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,b\n" {
		t.Fatalf("nil rows wrote %q, want only the header", got)
	}
}

func TestFig4CSV(t *testing.T) {
	res := runFresh[Fig4Result](t, "fig4", tinyOpts())
	var buf bytes.Buffer
	if err := res.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.Bytes())
	if len(rows) != 1+len(res.Shares) {
		t.Fatalf("rows = %d, want %d", len(rows), 1+len(res.Shares))
	}
	if rows[0][0] != "network" || len(rows[1]) != 8 {
		t.Fatalf("header/shape wrong: %v", rows[0])
	}
}

func TestFig5CSV(t *testing.T) {
	res := runFresh[Fig5Result](t, "fig5", tinyOpts())
	var buf bytes.Buffer
	if err := res.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if rows := parseCSV(t, buf.Bytes()); len(rows) != 1+len(res.Cells) {
		t.Fatalf("rows = %d", len(rows))
	}
}

// TestFig6CSV runs at three lab sites: Figure 6 correlates over sites and
// skips every cell with fewer than three.
func TestFig6CSV(t *testing.T) {
	opts := tinyOpts()
	opts.Scale.Sites = core.QuickScale().Sites[:3]
	res := runFresh[Fig6Result](t, "fig6", opts)
	var buf bytes.Buffer
	if err := res.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.Bytes())
	if len(rows) < 2 {
		t.Fatalf("fig6 CSV has %d records, want a header and at least one data row", len(rows))
	}
	if !slices.Contains(rows[0], "pearson_r") {
		t.Fatalf("header %v lacks pearson_r", rows[0])
	}
}

func TestTable3CSV(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3(1).CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if rows := parseCSV(t, buf.Bytes()); len(rows) != 7 { // header + 6 funnels
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestTable3JSON(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3(1).JSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Funnels") {
		t.Fatal("JSON missing fields")
	}
}
