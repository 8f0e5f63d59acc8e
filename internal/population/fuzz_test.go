package population

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/conformance"
	"repro/internal/study"
)

// fuzzConfig is the conformance-filtered run whose states seed the reduce
// fuzz targets.
var fuzzConfig = Config{Group: study.Microworker, Participants: 1_000, Shards: 4, Seed: 1, Conformance: true}

// FuzzReduceAB feeds ReduceAB mutated JSON shard states, as a garbled or
// hostile fabric worker would ship them. Whatever the bytes, the reduce must
// not panic; the unmutated states must reduce to exactly RunAB's result; and
// every input it accepts must carry the counts a real run produces.
func FuzzReduceAB(f *testing.F) {
	cells := testABCells()
	fuzzReduce(f, RunABRange, RunAB, ReduceAB, cells, conformance.AB,
		func(c *ABCellState, kept int64) (int64, bool) {
			n := c.VotesA + c.VotesB + c.VotesNone
			return n, c.VotesA >= 0 && c.VotesB >= 0 && c.VotesNone >= 0 && n <= kept &&
				c.Confidence.N == n && c.Replays.N == n
		},
		func(c *ABCellStats, kept int64) (int64, bool) {
			n := c.N()
			return n, n >= 0 && n <= kept && c.Confidence.N() == n && c.Replays.N() == n
		})
}

// FuzzReduceRating is FuzzReduceAB for the rating design: speed, quality
// and histogram counts must agree in every accepted cell.
func FuzzReduceRating(f *testing.F) {
	cells := testRatingCells()
	fuzzReduce(f, RunRatingRange, RunRating, ReduceRating, cells, conformance.Rating,
		func(c *RatingCellState, kept int64) (int64, bool) {
			n, sum := c.Speed.N, int64(0)
			for _, b := range c.Hist.Bins {
				if b < 0 {
					return n, false
				}
				sum += b
			}
			return n, n >= 0 && n <= kept && c.Quality.N == n && c.Hist.N == n && sum == n &&
				len(c.Hist.Bins) == ratingHistBins && c.Hist.Lo == study.RatingMin && c.Hist.Hi == study.RatingMax
		},
		func(c *RatingCellStats, kept int64) (int64, bool) {
			n := c.Speed.N()
			return n, n >= 0 && n <= kept && c.Quality.N() == n && c.Hist.N() == n
		})
}

// fuzzReduce runs one design's reduce fuzz target. stateVotes and
// resultVotes return a state's or a result's cell vote count and whether its
// counts agree with each other and with the kept participants.
func fuzzReduce[Cell, C, S any](f *testing.F,
	runRange func(context.Context, []Cell, Config, ShardRange) ([]shardState[S], error),
	run func(context.Context, []Cell, Config) (result[C], error),
	reduce func([]Cell, Config, []shardState[S]) (result[C], error),
	cells []Cell, kind conformance.StudyKind,
	stateVotes func(*S, int64) (int64, bool), resultVotes func(*C, int64) (int64, bool),
) {
	cfg := fuzzConfig
	states, err := runRange(context.Background(), cells, cfg, ShardRange{Lo: 0, Hi: cfg.Shards})
	if err != nil {
		f.Fatal(err)
	}
	seed, err := json.Marshal(states)
	if err != nil {
		f.Fatal(err)
	}
	want, err := run(context.Background(), cells, cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var in []shardState[S]
		if json.Unmarshal(data, &in) != nil {
			return
		}
		res, err := reduce(cells, cfg, in)
		if bytes.Equal(data, seed) && (err != nil || !reflect.DeepEqual(res, want)) {
			t.Fatalf("unmutated states: err %v, result differs from the local run: %v", err, !reflect.DeepEqual(res, want))
		}
		if err != nil {
			return
		}
		checkStates(t, cfg, kind, len(cells), in, stateVotes)
		checkResult(t, cfg, res, resultVotes)
	})
}

// checkStates asserts the counts every state of a conformance-filtered run
// holds: one state per shard in order, a funnel of the design's kind over
// exactly the shard's participants, kept equal to its conforming count, and
// cell votes that agree and add up.
func checkStates[S any](t *testing.T, cfg Config, kind conformance.StudyKind, ncells int, states []shardState[S], cellVotes func(*S, int64) (int64, bool)) {
	t.Helper()
	participants := 0
	for i, st := range states {
		lo, hi := shardRange(cfg.Participants, cfg.Shards, i)
		participants += hi - lo
		f := st.Funnel
		sum := 0
		for _, c := range f.FirstViol {
			if c < 0 {
				t.Fatalf("shard %d: negative funnel count %d", i, c)
			}
			sum += c
		}
		if st.Shard != i || f.Group != cfg.Group || f.Kind != kind || f.Start != hi-lo || sum != f.Start {
			t.Fatalf("shard %d accepted with funnel %+v over participants [%d, %d)", st.Shard, f, lo, hi)
		}
		if st.Kept != int64(f.FirstViol[conformance.RuleCount]) {
			t.Fatalf("shard %d: kept %d, conforming %d", i, st.Kept, f.FirstViol[conformance.RuleCount])
		}
		if len(st.Cells) != ncells {
			t.Fatalf("shard %d: %d cells, want %d", i, len(st.Cells), ncells)
		}
		var votes int64
		for ci := range st.Cells {
			n, ok := cellVotes(&st.Cells[ci], st.Kept)
			if !ok {
				t.Fatalf("shard %d cell %d accepted with counts %+v from %d kept", i, ci, st.Cells[ci], st.Kept)
			}
			votes += n
		}
		if st.Votes != votes {
			t.Fatalf("shard %d: votes %d, cells hold %d", i, st.Votes, votes)
		}
	}
	if participants != cfg.Participants {
		t.Fatalf("states cover %d participants, want %d", participants, cfg.Participants)
	}
}

// checkResult asserts the same counts on the reduced result.
func checkResult[C any](t *testing.T, cfg Config, res result[C], cellVotes func(*C, int64) (int64, bool)) {
	t.Helper()
	if res.Participants != cfg.Participants || res.Funnel.Start != cfg.Participants || res.Kept != int64(res.Funnel.Final()) {
		t.Fatalf("result covers %d participants, funnel %+v, kept %d", res.Participants, res.Funnel, res.Kept)
	}
	var votes int64
	for i := range res.Cells {
		n, ok := cellVotes(&res.Cells[i], res.Kept)
		if !ok {
			t.Fatalf("result cell %d accepted with counts %+v from %d kept", i, res.Cells[i], res.Kept)
		}
		votes += n
	}
	if res.Votes != votes {
		t.Fatalf("result votes %d, cells hold %d", res.Votes, votes)
	}
}
