package repro_test

// One benchmark per table and figure of the paper (the harness that
// regenerates each artifact), plus micro-benchmarks of the load-bearing
// substrates. Benchmarks run at a reduced scale so `go test -bench=.`
// finishes in minutes; use cmd/qoebench -scale standard|paper for the
// full-size artifacts.

import (
	"context"
	"io"
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/conformance"
	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/participant"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/study"
	"repro/internal/transport"
	"repro/internal/webpage"
)

func benchScale() core.Scale {
	return core.Scale{Sites: core.QuickScale().Sites[:2], Reps: 2}
}

func benchOpts() experiments.Options {
	return experiments.Options{Scale: benchScale(), Seed: 9}
}

// BenchmarkTable1ProtocolConfigs loads one page under each Table 1 stack.
func BenchmarkTable1ProtocolConfigs(b *testing.B) {
	site := webpage.ByName("gov.uk")
	for i := 0; i < b.N; i++ {
		for _, name := range core.ProtocolNames() {
			res := browser.Load(site, browser.Config{
				Network: simnet.DSL,
				Proto:   core.MustProtocol(name, simnet.DSL),
				Seed:    int64(i),
			})
			if !res.Trace.Completed {
				b.Fatal("load incomplete")
			}
		}
	}
}

// BenchmarkTable2NetworkConfigs loads one page under each Table 2 network.
func BenchmarkTable2NetworkConfigs(b *testing.B) {
	site := webpage.ByName("gov.uk")
	for i := 0; i < b.N; i++ {
		for _, net := range simnet.Networks() {
			res := browser.Load(site, browser.Config{
				Network: net,
				Proto:   core.MustProtocol("QUIC", net),
				Seed:    int64(i),
			})
			if !res.Trace.Completed {
				b.Fatal("load incomplete")
			}
		}
	}
}

// BenchmarkTable3Filtering simulates the full participant populations and
// runs the R1–R7 funnel.
func BenchmarkTable3Filtering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table3(int64(i))
		if len(res.Funnels) != 6 {
			b.Fatal("funnel count")
		}
	}
}

// benchFresh runs one registered experiment per iteration the way a lone
// invocation does: a fresh testbed, prewarmed with the experiment's declared
// conditions, then the run.
func benchFresh(b *testing.B, name string) {
	e, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	nets, prots := e.Conditions()
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		tb := core.NewTestbed(opts.Scale, opts.Seed)
		if err := tb.Prewarm(context.Background(), nets, prots); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(context.Background(), tb, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Agreement regenerates the cross-group agreement analysis.
func BenchmarkFig3Agreement(b *testing.B) {
	benchFresh(b, "fig3")
}

// BenchmarkFig4ABVotes regenerates the A/B study vote shares.
func BenchmarkFig4ABVotes(b *testing.B) {
	benchFresh(b, "fig4")
}

// BenchmarkFig5Ratings regenerates the rating study analysis.
func BenchmarkFig5Ratings(b *testing.B) {
	benchFresh(b, "fig5")
}

// BenchmarkFig6Correlation regenerates the metric-correlation heatmap.
func BenchmarkFig6Correlation(b *testing.B) {
	benchFresh(b, "fig6")
}

// BenchmarkAllExperimentsSharedTestbed runs the full `qoebench all` batch
// through the runner: one shared testbed, merged prewarm plan, parallel
// experiments. Compare against the sum of the per-figure benchmarks above to
// see the shared-cache speedup (each condition is recorded once per batch
// instead of once per experiment).
func BenchmarkAllExperimentsSharedTestbed(b *testing.B) {
	exps := experiments.All()
	for i := 0; i < b.N; i++ {
		rep := runner.RunContext(context.Background(), exps, runner.Options{Scale: benchScale(), Seed: 9}, runner.Hooks{})
		if err := rep.Err(); err != nil {
			b.Fatal(err)
		}
		if rep.Cache.Records != uint64(rep.Conditions) {
			b.Fatalf("recorded %d, want %d", rep.Cache.Records, rep.Conditions)
		}
	}
}

// BenchmarkAllExperimentsSequential is the same batch pinned to one worker —
// the baseline for the parallel speedup.
func BenchmarkAllExperimentsSequential(b *testing.B) {
	exps := experiments.All()
	for i := 0; i < b.N; i++ {
		rep := runner.RunContext(context.Background(), exps, runner.Options{Scale: benchScale(), Seed: 9, Parallel: 1}, runner.Hooks{})
		if err := rep.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHOL regenerates the stream-isolation ablation (A3).
func BenchmarkAblationHOL(b *testing.B) {
	opts := experiments.Options{Scale: core.Scale{Sites: benchScale().Sites[:1], Reps: 1}, Seed: 9}
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationHOL(opts)
		experiments.AblationResult{Title: "HOL", Rows: rows}.Render(io.Discard)
	}
}

// BenchmarkPopRatingExperiment runs the full pop-rating pipeline (scenario
// prewarm at bench scale + a 120k-participant, million-vote streamed rating
// study) through the registry, the configuration of the PR 2 acceptance
// criterion.
func BenchmarkPopRatingExperiment(b *testing.B) {
	e, ok := experiments.Lookup("pop-rating")
	if !ok {
		b.Fatal("pop-rating not registered")
	}
	for i := 0; i < b.N; i++ {
		tb := core.NewTestbed(benchScale(), 9)
		nets, prots := e.Conditions()
		if err := tb.Prewarm(context.Background(), nets, prots); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(context.Background(), tb, experiments.Options{Scale: benchScale(), Seed: 9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPopSweep runs the fixed-budget noticeability crossover through
// the registry at the canonical quick-scale tuple (the golden
// configuration): five page-load sweeps plus five 25k-voter panels.
// votes/op reports the simulated votes — the denominator of the adaptive
// variant's savings.
func BenchmarkPopSweep(b *testing.B) {
	e, ok := experiments.Lookup("pop-sweep")
	if !ok {
		b.Fatal("pop-sweep not registered")
	}
	var votes int64
	for i := 0; i < b.N; i++ {
		tb := core.NewTestbed(core.QuickScale(), 1)
		res, err := e.Run(context.Background(), tb, experiments.Options{Scale: core.QuickScale(), Seed: core.DeriveSeed(1, e.Name())})
		if err != nil {
			b.Fatal(err)
		}
		votes = 0
		for _, row := range res.(experiments.PopSweepResult).Rows {
			votes += row.N
		}
	}
	b.ReportMetric(float64(votes), "votes/op")
}

// BenchmarkPopSweepAdaptive runs the sequential-stopping crossover at the
// same canonical tuple. The acceptance bar is votes/op at least 5x below
// BenchmarkPopSweep's (the committed goldens pin 7,820 of 125,000 — 16x);
// run both with -bench BenchmarkPopSweep to compare their votes/op.
func BenchmarkPopSweepAdaptive(b *testing.B) {
	e, ok := experiments.Lookup("pop-sweep-adaptive")
	if !ok {
		b.Fatal("pop-sweep-adaptive not registered")
	}
	var votes, budget int64
	for i := 0; i < b.N; i++ {
		tb := core.NewTestbed(core.QuickScale(), 1)
		res, err := e.Run(context.Background(), tb, experiments.Options{Scale: core.QuickScale(), Seed: core.DeriveSeed(1, e.Name())})
		if err != nil {
			b.Fatal(err)
		}
		votes, budget = 0, 0
		for _, row := range res.(experiments.PopSweepAdaptiveResult).Rows {
			votes += row.N
			budget += row.Budget
		}
	}
	b.ReportMetric(float64(votes), "votes/op")
	b.ReportMetric(float64(budget-votes), "votes-saved/op")
}

// ---- substrate micro-benchmarks ----

// BenchmarkSimnetSchedule measures the pooled scheduler hot path: one
// schedule + fire cycle in steady state (free list warm, no closures).
func BenchmarkSimnetSchedule(b *testing.B) {
	b.ReportAllocs()
	sim := simnet.New(1)
	nop := func(any) {}
	for i := 0; i < 64; i++ {
		sim.ScheduleArg(time.Microsecond, nop, nil)
	}
	sim.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.ScheduleArg(time.Microsecond, nop, nil)
		sim.Run()
	}
}

// BenchmarkSimnetLinkSteadyState measures Link.Send + delivery with warm
// pools on a persistent simulator — the per-frame cost population-scale runs
// actually pay, as opposed to BenchmarkSimnetLink's cold-start cost.
func BenchmarkSimnetLinkSteadyState(b *testing.B) {
	b.ReportAllocs()
	sim := simnet.New(1)
	l := simnet.NewLink(sim, simnet.LinkConfig{
		BandwidthBps: 1e9, QueueCapBytes: 1 << 24,
	}, 1)
	n := 0
	l.Deliver = func(simnet.Frame) { n++ }
	for i := 0; i < 256; i++ {
		l.Send(simnet.Frame{Size: 1500})
	}
	sim.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Send(simnet.Frame{Size: 1500})
		sim.Run()
	}
}

// BenchmarkSimnetLink measures raw event-loop + link throughput.
func BenchmarkSimnetLink(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := simnet.New(1)
		l := simnet.NewLink(sim, simnet.LinkConfig{
			BandwidthBps: 1e9, QueueCapBytes: 1 << 24,
		}, 1)
		n := 0
		l.Deliver = func(simnet.Frame) { n++ }
		for j := 0; j < 1000; j++ {
			l.Send(simnet.Frame{Size: 1500})
		}
		sim.Run()
		if n != 1000 {
			b.Fatal("delivery miscount")
		}
	}
}

// BenchmarkTransportTransfer measures a 1 MB reliable transfer end to end.
func BenchmarkTransportTransfer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := simnet.New(1)
		net := transport.NewNetwork(sim, simnet.DSL)
		cc := congestion.NewCubic(congestion.Config{InitialWindowSegments: 10})
		cc2 := congestion.NewCubic(congestion.Config{InitialWindowSegments: 10})
		sem := transport.Semantics{ByteStream: true, MaxSackBlocks: 3, AckEvery: 2, AckDelay: 40 * time.Millisecond}
		c, s := net.NewConnPair(
			transport.Config{CC: cc, RecvBuf: 1 << 22, Sem: sem},
			transport.Config{CC: cc2, RecvBuf: 1 << 22, Sem: sem},
		)
		done := false
		c.OnStreamData = func(id int, total int64, fin bool) { done = done || fin }
		c.Start()
		s.Start()
		s.WriteStream(1, 1<<20, true)
		sim.Run()
		if !done {
			b.Fatal("transfer incomplete")
		}
	}
}

// BenchmarkPageLoadDSL measures one full page load (browser + HTTP + QUIC +
// network) on the fast network.
func BenchmarkPageLoadDSL(b *testing.B) {
	b.ReportAllocs()
	site := webpage.ByName("etsy.com")
	for i := 0; i < b.N; i++ {
		res := browser.Load(site, browser.Config{
			Network: simnet.DSL,
			Proto:   core.MustProtocol("QUIC", simnet.DSL),
			Seed:    int64(i),
		})
		if !res.Trace.Completed {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkPageLoadMSS measures a page load on the lossy satellite network
// (long virtual time, heavy recovery machinery).
func BenchmarkPageLoadMSS(b *testing.B) {
	site := webpage.ByName("gov.uk")
	for i := 0; i < b.N; i++ {
		res := browser.Load(site, browser.Config{
			Network: simnet.MSS,
			Proto:   core.MustProtocol("TCP", simnet.MSS),
			Seed:    int64(i),
		})
		if !res.Trace.Completed {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkCubicOnAck measures the congestion-avoidance hot path.
func BenchmarkCubicOnAck(b *testing.B) {
	b.ReportAllocs()
	c := congestion.NewCubic(congestion.Config{InitialWindowSegments: 10})
	c.OnLoss(time.Millisecond, 1460, 100000) // force congestion avoidance
	for i := 0; i < b.N; i++ {
		c.OnAck(time.Duration(i)*time.Millisecond, 1460, 50*time.Millisecond, 0, 50000)
	}
}

// BenchmarkBBROnAck measures the BBR filter/state-machine hot path in
// steady state. The warm-up fills both windowed filters past their windows
// first (as TestBBROnAckSteadyStateAllocFree does), so the growth of their
// backing arrays is not timed; one clock runs on across warm-up and loop.
func BenchmarkBBROnAck(b *testing.B) {
	b.ReportAllocs()
	bb := congestion.NewBBR(congestion.Config{})
	now := time.Duration(0)
	for i := 0; i < 1024; i++ {
		now += 50 * time.Millisecond
		bb.OnAck(now, 14600, 50*time.Millisecond, 2e6, 29200)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 50 * time.Millisecond
		bb.OnAck(now, 14600, 50*time.Millisecond, 2e6, 29200)
	}
}

// BenchmarkSpeedIndex measures metric computation over a long trace.
func BenchmarkSpeedIndex(b *testing.B) {
	b.ReportAllocs()
	tr := &metrics.Trace{Completed: true}
	for i := 0; i < 500; i++ {
		tr.Points = append(tr.Points, metrics.Point{
			T: time.Duration(i*10) * time.Millisecond, VC: float64(i) / 499,
		})
	}
	tr.PLT = 5 * time.Second
	for i := 0; i < b.N; i++ {
		if _, ok := metrics.SpeedIndex(tr); !ok {
			b.Fatal("no SI")
		}
	}
}

// BenchmarkABVote measures one psychometric vote on a prebuilt stimulus:
// the per-vote draws that population runs repeat millions of times.
func BenchmarkABVote(b *testing.B) {
	b.ReportAllocs()
	sim := simnet.New(1)
	rng := sim.SubRand(1)
	m := participant.New(study.Microworker, rng)
	stim := participant.NewABStimulus(study.Microworker, benchVoteLeft, benchVoteRight)
	for i := 0; i < b.N; i++ {
		m.ABVote(&stim)
	}
}

// BenchmarkNewABStimulus measures the per-stimulus part of a vote, computed
// once per cell and voter group.
func BenchmarkNewABStimulus(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stimulusSink = participant.NewABStimulus(study.Microworker, benchVoteLeft, benchVoteRight)
	}
}

var (
	benchVoteLeft  = metrics.Report{SI: 2e9, FVC: 1e9, Complete: true}
	benchVoteRight = metrics.Report{SI: 25e8, FVC: 12e8, Complete: true}
	stimulusSink   participant.ABStimulus
)

// BenchmarkConformanceFilter measures the funnel over the µWorker rating
// population.
func BenchmarkConformanceFilter(b *testing.B) {
	b.ReportAllocs()
	sessions := participant.Population(study.Microworker, conformance.Rating, 1563, 3)
	for i := 0; i < b.N; i++ {
		if _, f := conformance.Filter(sessions); f.Start != 1563 {
			b.Fatal("funnel start")
		}
	}
}

// BenchmarkPearson measures the correlation hot path of Fig. 6.
func BenchmarkPearson(b *testing.B) {
	b.ReportAllocs()
	xs := make([]float64, 36)
	ys := make([]float64, 36)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 70 - float64(i) + float64(i%3)
	}
	for i := 0; i < b.N; i++ {
		if _, err := stats.Pearson(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}
