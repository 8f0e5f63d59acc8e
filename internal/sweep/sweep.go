// Package sweep runs parameter sweeps around the paper's four network
// operating points: it varies one network dimension (bandwidth, RTT, loss)
// while holding the rest fixed, measures the QUIC-vs-TCP Speed Index gap at
// each step, and feeds the gaps through the perception model to locate the
// noticeability crossover — the quantitative version of the paper's
// conclusion that "if network speeds increase, the difficulty of spotting a
// difference rises".
package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/participant"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/study"
	"repro/internal/webpage"
)

// Dimension selects which network knob the sweep turns.
type Dimension int

const (
	// Bandwidth scales both directions' rates.
	Bandwidth Dimension = iota
	// RTT scales the base round-trip time.
	RTT
	// Loss sets the iid loss rate directly.
	Loss
	// Speed scales the whole network jointly: bandwidth up and RTT down by
	// the same factor — "a faster network" in the paper's sense (its four
	// operating points differ in both at once). This is the dimension along
	// which noticing protocol differences gets harder.
	Speed
)

func (d Dimension) String() string {
	switch d {
	case Bandwidth:
		return "bandwidth"
	case RTT:
		return "rtt"
	case Loss:
		return "loss"
	case Speed:
		return "speed"
	}
	return "?"
}

// Point is one sweep step.
type Point struct {
	// Value is the swept quantity: Mbps (Bandwidth), milliseconds (RTT),
	// or loss fraction (Loss).
	Value float64
	// SIA and SIB are mean Speed Indices of the two stacks.
	SIA, SIB time.Duration
	// GapRatio is SIB/SIA (>1 means stack A faster).
	GapRatio float64
	// PNoticeShare is the fraction of a simulated µWorker panel that votes
	// for either side (i.e. perceives a difference) on the typical pair.
	PNoticeShare float64
}

// Config parameterizes a sweep.
type Config struct {
	Dim    Dimension
	Base   simnet.NetworkConfig
	Values []float64 // sweep steps, in the dimension's unit
	// ProtoA / ProtoB are Table 1 names; A is the supposedly faster stack.
	ProtoA, ProtoB string
	Sites          []*webpage.Site
	Reps           int
	PanelSize      int // simulated voters per step (default 200)
	Seed           int64
}

// Result is a completed sweep.
type Result struct {
	Cfg    Config
	Points []Point
}

// Apply returns the base network with the dimension set to v. It is
// exported so other drivers of the sweep space — notably the pop-sweep
// population experiment — turn exactly the same knobs the interactive sweep
// does. The Speed case delegates to simnet's Scaled derivation, the shared
// "same shape, faster network" idiom of the scenario library.
func Apply(base simnet.NetworkConfig, dim Dimension, v float64) simnet.NetworkConfig {
	out := base
	switch dim {
	case Bandwidth:
		out.UplinkBps = int64(v * 1e6 / 5) // keep the paper's 1:5 up:down shape
		if out.UplinkBps < 100_000 {
			out.UplinkBps = 100_000
		}
		out.DownlinkBps = int64(v * 1e6)
		out.Name = fmt.Sprintf("%s@%gMbps", base.Name, v)
	case RTT:
		out.MinRTT = time.Duration(v * float64(time.Millisecond))
		out.Name = fmt.Sprintf("%s@%gms", base.Name, v)
	case Loss:
		out.LossRate = v
		out.Name = fmt.Sprintf("%s@%g%%", base.Name, v*100)
	case Speed:
		out = base.Scaled(v)
	}
	return out
}

// MeanReport loads the sites reps times and returns the mean SI and a
// representative report for a perception panel. Exported for the population
// experiments, which feed the same representative reports to much larger
// streamed panels.
func MeanReport(sites []*webpage.Site, net simnet.NetworkConfig, protoName string, reps int, seed int64) (time.Duration, metrics.Report) {
	var sis, fvcs []float64
	for _, site := range sites {
		for i := 0; i < reps; i++ {
			res := browser.Load(site, browser.Config{
				Network: net,
				Proto:   core.MustProtocol(protoName, net),
				Seed:    seed + int64(i)*104729,
			})
			if res.Report.Complete {
				sis = append(sis, res.Report.SI.Seconds())
				fvcs = append(fvcs, res.Report.FVC.Seconds())
			}
		}
	}
	if len(sis) == 0 {
		return 0, metrics.Report{}
	}
	si := time.Duration(stats.Mean(sis) * float64(time.Second))
	fvc := time.Duration(stats.Mean(fvcs) * float64(time.Second))
	return si, metrics.Report{SI: si, FVC: fvc, VC85: si, LVC: si, PLT: si, Complete: true}
}

// Run executes the sweep. Cancelling ctx stops between sweep steps and
// returns ctx.Err().
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.ProtoA == "" || cfg.ProtoB == "" {
		return Result{}, fmt.Errorf("sweep: both protocols required")
	}
	if len(cfg.Values) == 0 {
		return Result{}, fmt.Errorf("sweep: no sweep values")
	}
	if len(cfg.Sites) == 0 {
		cfg.Sites = webpage.LabCorpus()
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 3
	}
	if cfg.PanelSize <= 0 {
		cfg.PanelSize = 200
	}
	res := Result{Cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x53574545)) // "SWEE"
	var panellist participant.Model
	for _, v := range cfg.Values {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		net := Apply(cfg.Base, cfg.Dim, v)
		siA, repA := MeanReport(cfg.Sites, net, cfg.ProtoA, cfg.Reps, cfg.Seed)
		siB, repB := MeanReport(cfg.Sites, net, cfg.ProtoB, cfg.Reps, cfg.Seed)
		if siA == 0 || siB == 0 {
			return Result{}, fmt.Errorf("sweep: no complete loads at %s=%g", cfg.Dim, v)
		}
		stim := participant.NewABStimulus(study.Microworker, repA, repB)
		noticed := 0
		for i := 0; i < cfg.PanelSize; i++ {
			panellist.Reinit(study.Microworker, rng)
			vote, _, _ := panellist.ABVote(&stim)
			if vote != study.VoteNoDifference {
				noticed++
			}
		}
		res.Points = append(res.Points, Point{
			Value:        v,
			SIA:          siA,
			SIB:          siB,
			GapRatio:     float64(siB) / float64(siA),
			PNoticeShare: float64(noticed) / float64(cfg.PanelSize),
		})
	}
	return res, nil
}

// Crossover returns the first swept value at which the notice share drops
// below the threshold (scanning in the given order), and whether it exists —
// "how fast does the network have to get before users stop noticing".
func (r Result) Crossover(threshold float64) (float64, bool) {
	for _, p := range r.Points {
		if p.PNoticeShare < threshold {
			return p.Value, true
		}
	}
	return 0, false
}
