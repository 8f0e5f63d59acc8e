package repro_test

// Distributed golden coverage: the pop-ab and pop-rating experiments, run
// through a fabric coordinator fanning out to real qoed worker handlers,
// must render the exact bytes pinned under testdata/golden — the same files
// TestGoldenOutputs checks for the in-process engine. This test never
// updates goldens; it proves the distributed path reproduces them.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/testlog"
	"repro/pkg/qoe"
	"repro/pkg/qoe/qoed"
)

// TestDistributedGoldenOutputs runs the canonical population studies —
// including the adaptive sweep, whose round grants ship through the fabric
// as per-cell shard ranges — with the engine call distributed over two
// in-process qoed workers and diffs text and CSV output against the
// committed in-process goldens.
func TestDistributedGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("full population runs over a worker pool")
	}
	var pool []string
	for i := 0; i < 2; i++ {
		daemon := qoed.New(qoed.Config{})
		srv := httptest.NewServer(daemon)
		t.Cleanup(func() { srv.Close(); daemon.Close() })
		pool = append(pool, srv.URL)
	}
	fab, err := qoed.NewFabric(qoed.FabricConfig{Workers: pool, Logger: testlog.New(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.CheckWorkers(context.Background()); err != nil {
		t.Fatal(err)
	}
	backend := fab.ForTuple(qoe.ScaleQuick, goldenSeed)

	scale := core.QuickScale()
	tb := core.NewTestbed(scale, goldenSeed)
	ran := 0
	for _, e := range experiments.All() {
		name := e.Name()
		if name != "pop-ab" && name != "pop-rating" && name != qoe.StudyPopSweepAdaptive {
			continue
		}
		ran++
		t.Run(name, func(t *testing.T) {
			opts := experiments.Options{
				Scale:      scale,
				Seed:       core.DeriveSeed(goldenSeed, name),
				Population: backend,
			}
			res, err := e.Run(context.Background(), tb, opts)
			if err != nil {
				t.Fatal(err)
			}
			var text, csv bytes.Buffer
			res.Render(&text)
			if err := res.CSV(&csv); err != nil {
				t.Fatal(err)
			}
			requireGolden(t, name+".txt", text.Bytes())
			requireGolden(t, name+".csv", csv.Bytes())
		})
	}
	if ran != 3 {
		t.Fatalf("found %d canonical population experiments in the registry, want 3", ran)
	}

	// The two fixed-budget studies must have gone through the whole-study
	// reduce path, and the adaptive study's round grants through the
	// per-cell shard path — never the local fallback.
	var counters struct {
		Reduced        int64 `json:"studies_reduced"`
		FellBack       int64 `json:"studies_fell_back"`
		AdaptiveGrants int64 `json:"adaptive_grants"`
		AdaptiveShards int64 `json:"adaptive_shards"`
		AdaptiveLocal  int64 `json:"adaptive_fell_back"`
	}
	if err := json.Unmarshal(fab.Metrics().AppendJSON(nil), &counters); err != nil {
		t.Fatal(err)
	}
	if counters.Reduced != 2 || counters.FellBack != 0 {
		t.Errorf("fabric counters: studies_reduced=%d studies_fell_back=%d, want 2 and 0",
			counters.Reduced, counters.FellBack)
	}
	if counters.AdaptiveGrants == 0 || counters.AdaptiveShards < counters.AdaptiveGrants || counters.AdaptiveLocal != 0 {
		t.Errorf("fabric counters: adaptive_grants=%d adaptive_shards=%d adaptive_fell_back=%d, want grants>0, shards>=grants, fell_back=0",
			counters.AdaptiveGrants, counters.AdaptiveShards, counters.AdaptiveLocal)
	}
}

// requireGolden compares against an existing golden byte-for-byte and never
// rewrites it — the goldens are owned by TestGoldenOutputs.
func requireGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (generate via TestGoldenOutputs -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed %s diverged from the in-process golden.\n%s", name, firstDiff(got, want))
	}
}
