package experiments

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
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

func TestFig6CSV(t *testing.T) {
	res := runFresh[Fig6Result](t, "fig6", tinyOpts())
	var buf bytes.Buffer
	if err := res.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pearson_r") {
		t.Fatal("missing header")
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
