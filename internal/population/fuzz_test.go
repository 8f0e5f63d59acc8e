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

// FuzzReduceAB feeds ReduceAB mutated JSON shard states, as a garbled or
// hostile fabric worker would ship them. Whatever the bytes, the reduce must
// not panic; the unmutated states must reduce to exactly RunAB's result; and
// every input it accepts must carry the counts a real run produces.
func FuzzReduceAB(f *testing.F) {
	cells := testABCells()
	cfg := Config{Group: study.Microworker, Participants: 1_000, Shards: 4, Seed: 1, Conformance: true}
	states, err := RunABRange(context.Background(), cells, cfg, ShardRange{Lo: 0, Hi: 4})
	if err != nil {
		f.Fatal(err)
	}
	seed, err := json.Marshal(states)
	if err != nil {
		f.Fatal(err)
	}
	want, err := RunAB(context.Background(), cells, cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var in []ABShardState
		if json.Unmarshal(data, &in) != nil {
			return
		}
		res, err := ReduceAB(cells, cfg, in)
		if bytes.Equal(data, seed) && (err != nil || !reflect.DeepEqual(res, want)) {
			t.Fatalf("unmutated states: err %v, result differs from RunAB: %v", err, !reflect.DeepEqual(res, want))
		}
		if err != nil {
			return
		}
		checkABStates(t, cfg, len(cells), in)
		checkABResult(t, cfg, res)
	})
}

// checkABStates asserts the counts every state of a conformance-filtered run
// holds: one state per shard in order, a funnel over exactly the shard's
// participants, kept equal to its conforming count, and votes that add up.
func checkABStates(t *testing.T, cfg Config, ncells int, states []ABShardState) {
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
		if st.Shard != i || f.Group != cfg.Group || f.Kind != conformance.AB || f.Start != hi-lo || sum != f.Start {
			t.Fatalf("shard %d accepted with funnel %+v over participants [%d, %d)", st.Shard, f, lo, hi)
		}
		if st.Kept != int64(f.FirstViol[conformance.RuleCount]) {
			t.Fatalf("shard %d: kept %d, conforming %d", i, st.Kept, f.FirstViol[conformance.RuleCount])
		}
		if len(st.Cells) != ncells {
			t.Fatalf("shard %d: %d cells, want %d", i, len(st.Cells), ncells)
		}
		var votes int64
		for ci, c := range st.Cells {
			n := c.VotesA + c.VotesB + c.VotesNone
			if c.VotesA < 0 || c.VotesB < 0 || c.VotesNone < 0 || n > st.Kept ||
				c.Confidence.N != n || c.Replays.N != n {
				t.Fatalf("shard %d cell %d accepted with counts %+v from %d kept", i, ci, c, st.Kept)
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

// checkABResult asserts the same counts on the reduced result.
func checkABResult(t *testing.T, cfg Config, res ABResult) {
	t.Helper()
	if res.Participants != cfg.Participants || res.Funnel.Start != cfg.Participants || res.Kept != int64(res.Funnel.Final()) {
		t.Fatalf("result covers %d participants, funnel %+v, kept %d", res.Participants, res.Funnel, res.Kept)
	}
	var votes int64
	for i, c := range res.Cells {
		if c.N() < 0 || c.N() > res.Kept || c.Confidence.N() != c.N() || c.Replays.N() != c.N() {
			t.Fatalf("result cell %d: %d votes, confidence n=%d, replays n=%d, %d kept", i, c.N(), c.Confidence.N(), c.Replays.N(), res.Kept)
		}
		votes += c.N()
	}
	if res.Votes != votes {
		t.Fatalf("result votes %d, cells hold %d", res.Votes, votes)
	}
}
