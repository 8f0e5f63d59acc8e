package fabric

import (
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/population"
	"repro/pkg/qoe"
)

// BenchmarkFabricPopABLocal is the in-process engine reference for the
// distributed benchmarks below: the canonical quick-scale pop-ab study with
// no fabric in the path.
func BenchmarkFabricPopABLocal(b *testing.B) {
	cells, cfg, _ := localPopAB(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := population.RunAB(context.Background(), cells, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFabricPopABDistributed runs the same canonical study through the
// full fabric — plan, HTTP dispatch, NDJSON shard wire, ordered reduce —
// over in-process worker pools. On one machine every pool size shares the
// same cores, so the delta against FabricPopABLocal measures the fabric's
// coordination overhead, not cluster speedup; the per-shard work itself
// partitions with zero recomputation (shards_computed == planned shards),
// which is what makes wall-clock scale with workers once they are separate
// machines.
func BenchmarkFabricPopABDistributed(b *testing.B) {
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			cells, cfg, _ := localPopAB(b, 1)
			c := newCoordinator(b, Config{Workers: workerPool(b, n, nil)})
			backend := c.ForTuple(qoe.ScaleQuick, 1)
			// Warm the workers' shared testbed so the one-time condition
			// recording does not land in the first timed iteration.
			if err := sharedExec.Run(context.Background(), qoe.ShardRequest{
				Study: qoe.StudyPopAB, Scale: qoe.ScaleQuick, Seed: 1, Range: qoe.ShardRange{Lo: 0, Hi: 1},
			}, io.Discard); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := backend.RunAB(context.Background(), cells, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if got, want := c.shardsComputed.Value(), int64(b.N*cfg.Normalize().Shards); got != want {
				b.Fatalf("shards_computed = %d, want %d (redundant or lost shard work)", got, want)
			}
		})
	}
}
