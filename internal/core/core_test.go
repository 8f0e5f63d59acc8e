package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/study"
	"repro/internal/transport"
	"repro/internal/video"
	"repro/internal/webpage"
)

func TestProtocolCatalog(t *testing.T) {
	for _, name := range ProtocolNames() {
		p, err := Protocol(name, simnet.DSL)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name {
			t.Fatalf("protocol %q reports name %q", name, p.Name)
		}
	}
	if _, err := Protocol("SCTP", simnet.DSL); err == nil {
		t.Fatal("unknown protocol should error")
	}
	// Extension/ablation variants exist.
	for _, name := range []string{"QUIC-0RTT", "QUIC-nopacing"} {
		if _, err := Protocol(name, simnet.LTE); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMustProtocolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	MustProtocol("nope", simnet.DSL)
}

func TestTable1Rows(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("table 1 rows = %d", len(rows))
	}
	if rows[0].Protocol != "TCP" || rows[4].Protocol != "QUIC+BBR" {
		t.Fatalf("row order wrong: %+v", rows)
	}
}

func TestScales(t *testing.T) {
	if len(QuickScale().Sites) != 5 || QuickScale().Reps != 5 {
		t.Fatalf("quick scale: %+v", QuickScale())
	}
	if len(StandardScale().Sites) != 36 {
		t.Fatal("standard scale should cover the corpus")
	}
	if PaperScale().Reps != 31 {
		t.Fatal("paper scale should use 31 reps")
	}
}

func TestTestbedCachesRecordings(t *testing.T) {
	tb := NewTestbed(Scale{Sites: QuickScale().Sites[:1], Reps: 2}, 5)
	site := tb.Scale.Sites[0]
	a := tb.Recordings(site, simnet.DSL, "QUIC")
	b := tb.Recordings(site, simnet.DSL, "QUIC")
	if &a[0] != &b[0] {
		t.Fatal("recordings should be cached (same backing array)")
	}
	if len(a) != 2 {
		t.Fatalf("reps = %d", len(a))
	}
}

func TestTestbedTypicalDeterministic(t *testing.T) {
	mk := func() string {
		tb := NewTestbed(Scale{Sites: QuickScale().Sites[:1], Reps: 3}, 5)
		rec, err := tb.Typical(tb.Scale.Sites[0], simnet.LTE, "TCP")
		if err != nil {
			t.Fatal(err)
		}
		return rec.Report.PLT.String()
	}
	if mk() != mk() {
		t.Fatal("typical selection not deterministic")
	}
}

func TestPrewarmFillsCache(t *testing.T) {
	tb := NewTestbed(Scale{Sites: QuickScale().Sites[:2], Reps: 1}, 5)
	if err := tb.Prewarm(context.Background(), []simnet.NetworkConfig{simnet.DSL}, []string{"TCP", "QUIC"}); err != nil {
		t.Fatal(err)
	}
	if len(tb.cache) != 4 {
		t.Fatalf("cache entries = %d, want 4", len(tb.cache))
	}
}

// TestPrewarmCanceled: cancelling mid-prewarm must return ctx.Err() promptly
// and leave the cache consistent and reusable — a later Prewarm with a live
// context completes the plan, and nothing is recorded twice.
func TestPrewarmCanceled(t *testing.T) {
	// Full corpus so the plan (144 jobs) comfortably exceeds the worker pool:
	// cancellation must land while jobs are still queued.
	tb := NewTestbed(Scale{Sites: StandardScale().Sites, Reps: 1}, 5)
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	realRecord := tb.record
	tb.record = func(site *webpage.Site, net simnet.NetworkConfig, stack transport.Stack, n int, baseSeed int64) []video.Recording {
		if calls.Add(1) == 1 {
			cancel() // cancel as soon as the first recording starts
		}
		return realRecord(site, net, stack, n, baseSeed)
	}

	nets := []simnet.NetworkConfig{simnet.DSL, simnet.LTE}
	prots := []string{"TCP", "QUIC"}
	plan := int64(len(tb.Scale.Sites) * len(nets) * len(prots))

	done := make(chan error, 1)
	go func() { done <- tb.Prewarm(ctx, nets, prots) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Prewarm returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled Prewarm did not return promptly")
	}
	recordedEarly := calls.Load()
	if recordedEarly >= plan {
		t.Fatalf("cancellation recorded all %d conditions — nothing was skipped", plan)
	}

	// The testbed stays reusable: a fresh prewarm finishes the plan and every
	// condition is still recorded exactly once overall.
	if err := tb.Prewarm(context.Background(), nets, prots); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != plan {
		t.Fatalf("recordings after resume = %d, want %d (each condition exactly once)", got, plan)
	}
	if got := tb.Stats().Records; got != uint64(plan) {
		t.Fatalf("stats.Records = %d, want %d", got, plan)
	}
}

func TestABConditionsGrid(t *testing.T) {
	tb := NewTestbed(Scale{Sites: QuickScale().Sites[:2], Reps: 2}, 5)
	conds, err := tb.ABConditions([]simnet.NetworkConfig{simnet.DSL, simnet.LTE})
	if err != nil {
		t.Fatal(err)
	}
	// 4 pairs x 2 networks x 2 sites.
	if len(conds) != 16 {
		t.Fatalf("conditions = %d, want 16", len(conds))
	}
	for _, c := range conds {
		l, r := c.Video.Left, c.Video.Right
		if l.Site != r.Site || l.Network != r.Network {
			t.Fatalf("pair mismatch: %+v", c)
		}
		if l.Protocol == r.Protocol {
			t.Fatalf("A/B sides must differ in protocol: %+v", c)
		}
		// AOnLeft bookkeeping consistent with the actual video.
		if c.AOnLeft && l.Protocol != c.Pair.A {
			t.Fatalf("AOnLeft inconsistent: %+v", c)
		}
	}
	// Both side assignments occur across conditions.
	left, right := 0, 0
	for _, c := range conds {
		if c.AOnLeft {
			left++
		} else {
			right++
		}
	}
	if left == 0 || right == 0 {
		t.Fatalf("side randomization degenerate: %d/%d", left, right)
	}
}

func TestRunABStudyTallies(t *testing.T) {
	tb := NewTestbed(Scale{Sites: QuickScale().Sites[:2], Reps: 2}, 5)
	conds, err := tb.ABConditions([]simnet.NetworkConfig{simnet.LTE})
	if err != nil {
		t.Fatal(err)
	}
	out := RunABStudy(study.Lab, conds, 7)
	total := 0
	for i := range conds {
		if out.VotesA[i]+out.VotesB[i]+out.VotesNone[i] != out.VoteCount[i] {
			t.Fatalf("tally mismatch at %d", i)
		}
		total += out.VoteCount[i]
	}
	// 35 lab subjects x min(28, len(conds)=8) votes.
	if want := 35 * 8; total != want {
		t.Fatalf("total votes = %d, want %d", total, want)
	}
	shares := out.Shares()
	if len(shares) != 4 {
		t.Fatalf("share cells = %d", len(shares))
	}
}

func TestRunRatingStudyDeterministic(t *testing.T) {
	tb := NewTestbed(Scale{Sites: QuickScale().Sites[:2], Reps: 2}, 5)
	conds, err := tb.RatingConditions()
	if err != nil {
		t.Fatal(err)
	}
	a := RunRatingStudy(study.Lab, conds, 3)
	b := RunRatingStudy(study.Lab, conds, 3)
	for i := range a.Speed {
		if len(a.Speed[i]) != len(b.Speed[i]) {
			t.Fatal("nondeterministic condition assignment")
		}
		for j := range a.Speed[i] {
			if a.Speed[i][j] != b.Speed[i][j] {
				t.Fatal("nondeterministic votes")
			}
		}
	}
}

func TestRatingConditionsEnvironments(t *testing.T) {
	tb := NewTestbed(Scale{Sites: QuickScale().Sites[:1], Reps: 1}, 5)
	conds, err := tb.RatingConditions()
	if err != nil {
		t.Fatal(err)
	}
	// 3 envs x 2 networks x 5 protocols x 1 site.
	if len(conds) != 30 {
		t.Fatalf("conditions = %d, want 30", len(conds))
	}
	for _, c := range conds {
		nets := study.EnvironmentNetworks(c.Environment)
		if c.Network != nets[0] && c.Network != nets[1] {
			t.Fatalf("condition %v uses network %s outside its environment", c.Environment, c.Network)
		}
	}
}

// TestRecordingsSingleflight: concurrent cache misses for one condition must
// share a single video.Record run instead of each simulating it (the old
// check-then-act race recorded twice and discarded one result).
func TestRecordingsSingleflight(t *testing.T) {
	tb := NewTestbed(Scale{Sites: QuickScale().Sites[:1], Reps: 2}, 5)
	var calls atomic.Int64
	realRecord := tb.record
	tb.record = func(site *webpage.Site, net simnet.NetworkConfig, stack transport.Stack, n int, baseSeed int64) []video.Recording {
		calls.Add(1)
		return realRecord(site, net, stack, n, baseSeed)
	}
	site := tb.Scale.Sites[0]

	const goroutines = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			tb.Recordings(site, simnet.DSL, "QUIC")
		}()
	}
	close(start)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("video.Record invoked %d times for one condition, want 1", got)
	}
	stats := tb.Stats()
	if stats.Records != 1 {
		t.Fatalf("stats.Records = %d, want 1", stats.Records)
	}
	if stats.Hits != goroutines-1 {
		t.Fatalf("stats.Hits = %d, want %d", stats.Hits, goroutines-1)
	}
	// All callers see the same cached slice afterwards.
	a := tb.Recordings(site, simnet.DSL, "QUIC")
	b := tb.Recordings(site, simnet.DSL, "QUIC")
	if &a[0] != &b[0] {
		t.Fatal("post-flight lookups should share the cached backing array")
	}
	if calls.Load() != 1 {
		t.Fatal("cache hits must not re-record")
	}
}

// TestDeriveSeedMatchesCondKeyIdiom pins the seed-derivation formula the
// runner shares with per-condition recording seeds.
func TestDeriveSeedMatchesCondKeyIdiom(t *testing.T) {
	if DeriveSeed(0, "fig5") != int64(hash("fig5")) {
		t.Fatal("DeriveSeed(0, name) should equal FNV(name)")
	}
	if DeriveSeed(7, "fig5") == DeriveSeed(7, "fig6") {
		t.Fatal("different names must derive different seeds")
	}
	if DeriveSeed(7, "fig5") != DeriveSeed(7, "fig5") {
		t.Fatal("derivation must be deterministic")
	}
}
