package experiments

import (
	"context"

	"repro/internal/core"
	"repro/internal/population"
	"repro/internal/study"
)

// PopulationBackend is the seam the distributed study fabric plugs into: an
// alternative engine for the canonical population runs. When
// Options.Population is set, pop-ab and pop-rating delegate their
// (cells, config) call to it instead of the in-process engine, and
// pop-sweep-adaptive routes each round grant of a grid cell through
// RunABShardRange — everything around the call (cell construction, row
// aggregation, rendering) is unchanged, which is what keeps a distributed
// run's output byte-identical to a local one. pop-sweep deliberately
// bypasses the backend: its per-step panels use a non-canonical config
// (VotesPerParticipant=1, per-step derived seeds) and stay local.
type PopulationBackend interface {
	RunAB(ctx context.Context, cells []population.ABCell, cfg population.Config) (population.ABResult, error)
	RunRating(ctx context.Context, cells []population.RatingCell, cfg population.Config) (population.RatingResult, error)
	// RunABShardRange runs one shard-range grant of one adaptive grid cell,
	// addressed by study name and cell index so a worker can rebuild the
	// identical cell from its own testbed. The cells and config travel too,
	// which lets the backend verify the call is canonical (see
	// CanonicalConfig) and fall back to local execution when it is not.
	// Grants happen only at round barriers, so the backend never sees — and
	// can never introduce — mid-shard allocation decisions.
	RunABShardRange(ctx context.Context, study string, cell int, cells []population.ABCell, cfg population.Config, r population.ShardRange) ([]population.ABShardState, error)
}

// CanonicalConfig is the one rule deciding which studies shard: it returns
// the canonical population config of one grid cell of a shardable study,
// given the experiment's derived seed, together with the study's cell
// count. ok is false for an unknown study (cells == 0) or a cell outside
// the grid. The shard protocol's study and cell validation, the worker's
// engine configs, and the fabric's canonical-call guard all read it, so
// the engine parameters can never drift between the two sides of the wire.
func CanonicalConfig(studyName string, seed int64, cell int) (cfg population.Config, cells int, ok bool) {
	switch studyName {
	case popABName, popRatingName:
		if cell != 0 {
			return population.Config{}, 1, false
		}
		return PopABConfig(seed), 1, true
	case popSweepAdaptiveName:
		n := len(popSweepFactors)
		if cell < 0 || cell >= n {
			return population.Config{}, n, false
		}
		return popSweepAdaptiveCellConfigs(seed)[cell], n, true
	}
	return population.Config{}, 0, false
}

// PopABCells exposes the pop-ab stimulus grid for out-of-process execution:
// a worker rebuilds the identical cells from the same testbed.
func PopABCells(tb *core.Testbed) ([]population.ABCell, error) { return popABCells(tb) }

// PopRatingCells exposes the pop-rating stimulus grid likewise.
func PopRatingCells(tb *core.Testbed) ([]population.RatingCell, error) {
	return popRatingCells(tb)
}

// PopABConfig is the canonical population config pop-ab and pop-rating run
// with, given the experiment's derived seed.
func PopABConfig(seed int64) population.Config {
	return population.Config{
		Group:        study.Microworker,
		Participants: popParticipants,
		Seed:         seed,
		Conformance:  true,
	}
}
