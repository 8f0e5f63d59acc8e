package qoe

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the shard-stream goldens")

// shardExec serves every shard request in this file, so the quick-scale
// seed-1 testbed records its conditions once per test binary.
var shardExec = NewShardExecutor(1)

// goldenShardReq is the request behind testdata/pop-ab-0-2.shards.jsonl, the
// real executor stream that seeds FuzzDecodeShardStream.
var (
	goldenShardReq  = ShardRequest{Study: StudyPopAB, Scale: ScaleQuick, Seed: 1, Range: ShardRange{Lo: 0, Hi: 2}}
	goldenShardPath = filepath.Join("testdata", "pop-ab-0-2.shards.jsonl")
)

// TestShardStreamGolden pins the executor's stream for one request per
// study design: goldenShardReq, which keeps the fuzz seed a real stream, and
// the first two pop-rating shards. Refresh with -update.
func TestShardStreamGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("records quick-scale conditions; skipped in -short")
	}
	for _, tc := range []struct {
		req  ShardRequest
		path string
	}{
		{goldenShardReq, goldenShardPath},
		{ShardRequest{Study: StudyPopRating, Scale: ScaleQuick, Seed: 1, Range: ShardRange{Lo: 0, Hi: 2}}, filepath.Join("testdata", "pop-rating-0-2.shards.jsonl")},
	} {
		t.Run(tc.req.Study, func(t *testing.T) {
			var got bytes.Buffer
			if err := shardExec.Run(context.Background(), tc.req, &got); err != nil {
				t.Fatal(err)
			}
			if *update {
				if err := os.WriteFile(tc.path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(tc.path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("executor stream for %s %v drifted from %s (refresh with -update)", tc.req.Study, tc.req.Range, tc.path)
			}
		})
	}
}

// TestShardStudyLookup drives the canonical-study lookup through its public
// callers: StudyShards and StudyCells name each study's shard space, and
// ShardExecutor.Run accepts exactly the requests inside it. A rejected
// request must fail before a byte reaches w, so the HTTP layer can still
// answer 400 instead of a truncated 200.
func TestShardStudyLookup(t *testing.T) {
	if testing.Short() {
		t.Skip("accepted cases record quick-scale conditions; skipped in -short")
	}
	const adaptiveCells = 5
	for _, tc := range []struct {
		name   string
		study  string
		cell   int
		rng    ShardRange
		shards int // 0: unknown study
		cells  int
		ok     bool
	}{
		{"pop-ab", StudyPopAB, 0, ShardRange{Lo: 62, Hi: 64}, 64, 1, true},
		{"pop-rating", StudyPopRating, 0, ShardRange{Lo: 0, Hi: 1}, 64, 1, true},
		{"pop-sweep-adaptive last cell", StudyPopSweepAdaptive, adaptiveCells - 1, ShardRange{Lo: 0, Hi: 1}, 64, adaptiveCells, true},
		{"unknown study", "pop-sweep", 0, ShardRange{Lo: 0, Hi: 1}, 0, 0, false},
		{"cell 1 on pop-ab", StudyPopAB, 1, ShardRange{Lo: 0, Hi: 1}, 64, 1, false},
		{"negative cell", StudyPopSweepAdaptive, -1, ShardRange{Lo: 0, Hi: 1}, 64, adaptiveCells, false},
		{"cell past the adaptive grid", StudyPopSweepAdaptive, adaptiveCells, ShardRange{Lo: 0, Hi: 1}, 64, adaptiveCells, false},
		{"range past the shard count", StudyPopAB, 0, ShardRange{Lo: 63, Hi: 65}, 64, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shards, err := StudyShards(tc.study)
			if (err == nil) != (tc.shards > 0) || shards != tc.shards {
				t.Errorf("StudyShards = %d, %v; want %d shards", shards, err, tc.shards)
			}
			cells, err := StudyCells(tc.study)
			if (err == nil) != (tc.cells > 0) || cells != tc.cells {
				t.Errorf("StudyCells = %d, %v; want %d cells", cells, err, tc.cells)
			}

			req := ShardRequest{Study: tc.study, Scale: ScaleQuick, Seed: 1, Cell: tc.cell, Range: tc.rng}
			var buf bytes.Buffer
			err = shardExec.Run(context.Background(), req, &buf)
			if !tc.ok {
				if err == nil {
					t.Fatal("Run accepted the request")
				}
				if buf.Len() != 0 {
					t.Fatalf("Run wrote %d bytes before rejecting: %v", buf.Len(), err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			data, err := decodeShardStream(&buf, req)
			if err != nil {
				t.Fatalf("executor stream does not decode: %v", err)
			}
			if len(data) != tc.rng.Count() {
				t.Fatalf("decoded %d shards, want %d", len(data), tc.rng.Count())
			}
		})
	}
}

// FuzzDecodeShardStream feeds the shard-stream decoder arbitrary bytes and
// request ranges. It must never panic, and a nil error must mean the
// returned shards cover exactly the requested range, in ascending order,
// each with a state.
func FuzzDecodeShardStream(f *testing.F) {
	req := goldenShardReq
	full, err := os.ReadFile(goldenShardPath)
	if err != nil {
		f.Fatal(err)
	}
	good := compactStates(f, full)
	for _, s := range [][]byte{full, good} {
		if _, err := decodeShardStream(bytes.NewReader(s), req); err != nil {
			f.Fatalf("executor stream rejected: %v", err)
		}
	}
	lines := bytes.SplitAfter(good, []byte("\n"))
	if len(lines) != 4 || len(lines[3]) != 0 {
		f.Fatalf("stream for %v has %d lines, want 2 shards and a summary", req.Range, len(lines)-1)
	}
	shard0, shard1, summary := lines[0], lines[1], lines[2]
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	garbled := bytes.Clone(good)
	garbled[0] = 'X'
	for name, bad := range map[string][]byte{
		"truncated mid-line": good[:len(good)-len(summary)/2],
		"no summary":         cat(shard0, shard1),
		"garbled":            garbled,
		"duplicate shard":    cat(shard0, shard0, shard1, summary),
		"wrong cell":         bytes.Replace(good, []byte(`"study":"pop-ab",`), []byte(`"study":"pop-ab","cell":1,`), 1),
		"line after summary": cat(good, shard1),
	} {
		if _, err := decodeShardStream(bytes.NewReader(bad), req); err == nil {
			f.Fatalf("%s stream accepted", name)
		}
		f.Add(bad, req.Range.Lo, req.Range.Hi)
	}
	f.Add(good, req.Range.Lo, req.Range.Hi)

	f.Fuzz(func(t *testing.T, stream []byte, lo, hi int) {
		r := req
		r.Range = ShardRange{Lo: lo, Hi: hi}
		data, err := decodeShardStream(bytes.NewReader(stream), r)
		if err != nil {
			return
		}
		if len(data) != r.Range.Count() {
			t.Fatalf("accepted %d shards for %v", len(data), r.Range)
		}
		for i, d := range data {
			if d.Shard != lo+i {
				t.Fatalf("shard %d at position %d of %v", d.Shard, i, r.Range)
			}
			if len(d.State) == 0 {
				t.Fatalf("shard %d accepted without state", d.Shard)
			}
		}
	})
}

// compactStates replaces every shard state of a valid stream with {},
// keeping each line's framing. The decoder never looks inside a state, and
// the fuzzing engine stalls on inputs the size of a real pop-ab stream
// (~15 KB per state).
func compactStates(t testing.TB, stream []byte) []byte {
	t.Helper()
	var out []byte
	for _, line := range bytes.SplitAfter(stream, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var ev ShardEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.State != nil {
			ev.State = json.RawMessage(`{}`)
		}
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, b...), '\n')
	}
	return out
}
