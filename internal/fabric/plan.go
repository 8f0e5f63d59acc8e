package fabric

import (
	"fmt"
	"io"

	"repro/pkg/qoe"
)

// Plan is the deterministic split of one study into shard-range sub-jobs.
// It is pure arithmetic over (study, scale, seed, worker count) — no I/O —
// so the same inputs always render the same plan, which the shard-plan
// golden pins.
type Plan struct {
	Study       string
	Scale       qoe.Scale
	Seed        int64 // master seed
	TotalShards int
	Workers     int
	Jobs        []qoe.ShardRange
}

// planStudy splits a study's canonical shard space into ~4 jobs per worker:
// fine-grained enough that a lost worker re-runs a sliver of the study,
// coarse enough that per-job HTTP overhead stays negligible.
func planStudy(study string, scale qoe.Scale, seed int64, workers int) (Plan, error) {
	total, err := qoe.StudyShards(study)
	if err != nil {
		return Plan{}, err
	}
	perJob := total / (4 * workers)
	if perJob < 1 {
		perJob = 1
	}
	p := Plan{Study: study, Scale: scale, Seed: seed, TotalShards: total, Workers: workers}
	for lo := 0; lo < total; lo += perJob {
		hi := lo + perJob
		if hi > total {
			hi = total
		}
		p.Jobs = append(p.Jobs, qoe.ShardRange{Lo: lo, Hi: hi})
	}
	return p, nil
}

// Render prints the plan in its golden-pinned form.
func (p Plan) Render(w io.Writer) {
	fmt.Fprintf(w, "fabric plan: study %s, scale %s, seed %d\n", p.Study, p.Scale, p.Seed)
	fmt.Fprintf(w, "%d shards over %d workers in %d jobs\n", p.TotalShards, p.Workers, len(p.Jobs))
	for i, j := range p.Jobs {
		fmt.Fprintf(w, "  job %2d: shards %s (%d shards)\n", i, j, j.Count())
	}
}
