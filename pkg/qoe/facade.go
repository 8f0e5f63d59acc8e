package qoe

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/participant"
	"repro/internal/population"
	"repro/internal/prng"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/study"
	"repro/internal/sweep"
	"repro/internal/transport"
	"repro/internal/video"
	"repro/internal/webpage"
)

// resolveSite looks a site up in the corpus.
func resolveSite(name string) (*webpage.Site, error) {
	site := webpage.ByName(name)
	if site == nil {
		return nil, fmt.Errorf("qoe: unknown site %q (the corpus has %d sites; see Sites())", name, len(webpage.Corpus()))
	}
	return site, nil
}

// resolveNetwork resolves a Table 2 or scenario-library name.
func resolveNetwork(name string) (simnet.NetworkConfig, error) {
	net, err := simnet.ScenarioByName(name)
	if err != nil {
		return simnet.NetworkConfig{}, fmt.Errorf("qoe: unknown network %q (have: %v)", name, NetworkNames())
	}
	return net, nil
}

// resolveProtocol resolves a Table 1 stack name against a network.
func resolveProtocol(name string, net simnet.NetworkConfig) (transport.Stack, error) {
	proto, err := core.Protocol(name, net)
	if err != nil {
		return transport.Stack{}, fmt.Errorf("qoe: %w (have: %v)", err, ProtocolNames())
	}
	return proto, nil
}

// PageLoad describes one page load.
type PageLoad struct {
	Site     string
	Network  string // Table 2 or scenario-library name
	Protocol string // Table 1 stack name
	Seed     int64
	// MaxLoadTime aborts pathological loads; zero keeps the loader default.
	MaxLoadTime time.Duration
}

// TracePoint is one sample of the visual-progress trace.
type TracePoint struct {
	T  time.Duration
	VC float64 // visual completeness, 0..1
}

// PageResult is the outcome of one page load: the paper's visual metrics
// plus the transport counters.
type PageResult struct {
	Site, Network, Protocol string

	FVC, SI, VC85, LVC, PLT time.Duration
	Complete                bool

	Objects, ObjectsTotal int
	Conns                 int
	Retransmissions, RTOs uint64

	Trace []TracePoint
}

// LoadPage loads one site under one (network, protocol) configuration — the
// smallest way to poke at the testbed, and the substrate every experiment
// builds on.
func LoadPage(req PageLoad) (PageResult, error) {
	site, err := resolveSite(req.Site)
	if err != nil {
		return PageResult{}, err
	}
	net, err := resolveNetwork(req.Network)
	if err != nil {
		return PageResult{}, err
	}
	proto, err := resolveProtocol(req.Protocol, net)
	if err != nil {
		return PageResult{}, err
	}

	res := browser.Load(site, browser.Config{Network: net, Proto: proto, Seed: req.Seed, MaxLoadTime: req.MaxLoadTime})
	out := PageResult{
		Site: site.Name, Network: net.Name, Protocol: proto.Name,
		FVC: res.Report.FVC, SI: res.Report.SI, VC85: res.Report.VC85,
		LVC: res.Report.LVC, PLT: res.Report.PLT, Complete: res.Trace.Completed,
		Objects: res.Objects, ObjectsTotal: len(site.Objects),
		Conns: res.Conns, Retransmissions: res.Retransmissions, RTOs: res.RTOs,
	}
	for _, p := range res.Trace.Points {
		out.Trace = append(out.Trace, TracePoint{T: p.T, VC: p.VC})
	}
	return out, nil
}

// ABStudy describes one A/B "do users notice?" comparison: two protocol
// stacks on one site and network, judged by a streamed synthetic µWorker
// crowd.
type ABStudy struct {
	Site    string
	Network string
	// ProtoA is the supposedly faster stack; shares fold votes back onto it.
	ProtoA, ProtoB string
	// Recordings is the per-stack pool the typical video is selected from
	// (closest-to-mean-PLT rule). Default 5.
	Recordings int
	// Voters is the synthetic crowd size. Default 200 — the interactive
	// panel of the paper; population-scale crowds (hundreds of thousands)
	// stream through the same engine in seconds.
	Voters int
	// VotesPerVoter bounds the stimuli one voter judges. Default 1.
	VotesPerVoter int
	Seed          int64
}

// ABOutcome is a completed A/B comparison.
type ABOutcome struct {
	Site, Network  string
	ProtoA, ProtoB string
	// SIA and SIB are the Speed Indices of the two typical videos.
	SIA, SIB time.Duration
	Votes    int64
	// ShareA, ShareNone, ShareB partition the votes.
	ShareA, ShareNone, ShareB float64
	// Noticed is the Wilson 99% CI on the share of voters who perceived any
	// difference.
	Noticed                     Interval
	MeanConfidence, MeanReplays float64
}

// CompareAB records typical videos for both stacks and runs the A/B study
// over a streamed synthetic crowd. Cancelling ctx aborts the crowd
// simulation with ctx.Err().
func CompareAB(ctx context.Context, req ABStudy) (ABOutcome, error) {
	site, err := resolveSite(req.Site)
	if err != nil {
		return ABOutcome{}, err
	}
	net, err := resolveNetwork(req.Network)
	if err != nil {
		return ABOutcome{}, err
	}
	protoA, err := resolveProtocol(req.ProtoA, net)
	if err != nil {
		return ABOutcome{}, err
	}
	protoB, err := resolveProtocol(req.ProtoB, net)
	if err != nil {
		return ABOutcome{}, err
	}
	reps := req.Recordings
	if reps <= 0 {
		reps = 5
	}
	voters := req.Voters
	if voters <= 0 {
		voters = 200
	}
	votesPer := req.VotesPerVoter
	if votesPer <= 0 {
		votesPer = 1
	}

	if err := ctx.Err(); err != nil {
		return ABOutcome{}, err
	}
	a, err := video.SelectTypical(video.Record(site, net, protoA, reps, req.Seed))
	if err != nil {
		return ABOutcome{}, fmt.Errorf("qoe: recording %s: %w", req.ProtoA, err)
	}
	if err := ctx.Err(); err != nil {
		return ABOutcome{}, err
	}
	b, err := video.SelectTypical(video.Record(site, net, protoB, reps, req.Seed))
	if err != nil {
		return ABOutcome{}, fmt.Errorf("qoe: recording %s: %w", req.ProtoB, err)
	}

	cell := population.ABCell{
		Label:   req.ProtoA + " vs. " + req.ProtoB + " | " + net.Name + " | " + site.Name,
		Left:    a.Report,
		Right:   b.Report,
		AOnLeft: true,
	}
	res, err := population.RunAB(ctx, []population.ABCell{cell}, population.Config{
		Group:               study.Microworker,
		Participants:        voters,
		VotesPerParticipant: votesPer,
		Seed:                req.Seed,
	})
	if err != nil {
		return ABOutcome{}, err
	}
	st := &res.Cells[0]
	noticed := st.Noticed()
	ci, err := noticed.CI(0.99)
	if err != nil {
		return ABOutcome{}, err
	}
	return ABOutcome{
		Site: site.Name, Network: net.Name,
		ProtoA: req.ProtoA, ProtoB: req.ProtoB,
		SIA: a.Report.SI, SIB: b.Report.SI,
		Votes:  st.N(),
		ShareA: st.ShareA(), ShareNone: st.ShareNone(), ShareB: st.ShareB(),
		Noticed:        Interval{Point: ci.Point, Lo: ci.Lo, Hi: ci.Hi, Level: ci.Level},
		MeanConfidence: st.Confidence.Mean(),
		MeanReplays:    st.Replays.Mean(),
	}, nil
}

// Environments lists the rating-study framings by display name.
func Environments() []string {
	var out []string
	for _, env := range study.Environments() {
		out = append(out, env.String())
	}
	return out
}

// environmentByName resolves a framing by its display name ("At Work",
// "Free Time", "On a plane"), case-insensitively.
func environmentByName(name string) (study.Environment, error) {
	for _, env := range study.Environments() {
		if strings.EqualFold(name, env.String()) {
			return env, nil
		}
	}
	return 0, fmt.Errorf("qoe: unknown environment %q (have: %v)", name, Environments())
}

// RatingPanel describes one "do users care?" panel: a crowd rates single
// videos of the same site under several protocol stacks, and a one-way
// ANOVA screens for a protocol effect.
type RatingPanel struct {
	Site    string
	Network string
	// Environment is the framing ("At Work", "Free Time", "On a plane");
	// default "Free Time".
	Environment string
	// Protocols defaults to the five Table 1 stacks.
	Protocols []string
	// Voters per protocol. Default 150 — the paper's per-condition ballpark.
	Voters int
	Seed   int64
}

// ProtocolRating is one stack's aggregated panel rating.
type ProtocolRating struct {
	Protocol string
	// Mean is the Student-t 99% CI over the ACR-100 speed votes.
	Mean Interval
	// Label places the mean on the paper's labeled scale (Bad … Excellent).
	Label string
}

// ANOVA is the one-way analysis of variance over the per-protocol vote
// groups.
type ANOVA struct {
	F        float64
	P        float64
	DFB, DFW int
}

// Significant reports significance at the given confidence level (0.99
// means p < 0.01).
func (a ANOVA) Significant(level float64) bool { return a.P < 1-level }

func (a ANOVA) String() string {
	return fmt.Sprintf("F(%d,%d)=%.3f p=%.4f", a.DFB, a.DFW, a.F, a.P)
}

// RatingOutcome is a completed rating panel.
type RatingOutcome struct {
	Site, Network, Environment string
	Ratings                    []ProtocolRating
	ANOVA                      ANOVA
}

// RatePanel loads the site once per protocol stack, has a synthetic µWorker
// crowd rate each video under the environment framing, and tests the
// protocol effect with a one-way ANOVA. Cancelling ctx stops between
// stacks.
func RatePanel(ctx context.Context, req RatingPanel) (RatingOutcome, error) {
	site, err := resolveSite(req.Site)
	if err != nil {
		return RatingOutcome{}, err
	}
	net, err := resolveNetwork(req.Network)
	if err != nil {
		return RatingOutcome{}, err
	}
	envName := req.Environment
	if envName == "" {
		envName = study.FreeTime.String()
	}
	env, err := environmentByName(envName)
	if err != nil {
		return RatingOutcome{}, err
	}
	protocols := req.Protocols
	if len(protocols) == 0 {
		protocols = ProtocolNames()
	}
	voters := req.Voters
	if voters <= 0 {
		voters = 150
	}

	out := RatingOutcome{Site: site.Name, Network: net.Name, Environment: env.String()}
	var groups [][]float64
	for _, name := range protocols {
		if err := ctx.Err(); err != nil {
			return RatingOutcome{}, err
		}
		proto, err := resolveProtocol(name, net)
		if err != nil {
			return RatingOutcome{}, err
		}
		res := browser.Load(site, browser.Config{Network: net, Proto: proto, Seed: req.Seed})
		// Each protocol's panel draws from its own derived seed, so a
		// stack's rating is reproducible regardless of which other stacks
		// run in the same panel (the same independence the batch runner
		// gives experiments).
		rng := prng.New(core.DeriveSeed(req.Seed, "qoe-rating-panel/"+name))
		stim := participant.NewRatingStimulus(res.Report, env)
		votes := make([]float64, 0, voters)
		var m participant.Model
		for i := 0; i < voters; i++ {
			m.Reinit(study.Microworker, rng)
			speed, _ := m.Rate(&stim)
			votes = append(votes, speed)
		}
		ci, err := stats.MeanCI(votes, 0.99)
		if err != nil {
			return RatingOutcome{}, err
		}
		groups = append(groups, votes)
		out.Ratings = append(out.Ratings, ProtocolRating{
			Protocol: name,
			Mean:     Interval{Point: ci.Point, Lo: ci.Lo, Hi: ci.Hi, Level: ci.Level},
			Label:    study.ScaleLabel(ci.Point),
		})
	}
	an, err := stats.OneWayANOVA(groups...)
	if err != nil {
		return RatingOutcome{}, err
	}
	out.ANOVA = ANOVA{F: an.F, P: an.P, DFB: an.DFB, DFW: an.DFW}
	return out, nil
}

// SweepRequest describes a noticeability-crossover sweep: one network
// dimension varied around a base operating point, the A-vs-B gap measured
// at each step, and a perception panel voting on it.
type SweepRequest struct {
	// Dimension is one of "speed", "bandwidth", "rtt", "loss".
	Dimension string
	// Base is the network whose operating point anchors the sweep.
	Base           string
	ProtoA, ProtoB string
	// Values are the sweep steps in the dimension's unit (a scale factor
	// for speed, Mbps for bandwidth, milliseconds for rtt, a fraction for
	// loss).
	Values []float64
	// Reps per site and step. Default 3.
	Reps int
	// PanelSize voters per step. Default 200.
	PanelSize int
	Seed      int64
}

// SweepPoint is one sweep step.
type SweepPoint struct {
	Value        float64
	SIA, SIB     time.Duration
	GapRatio     float64
	NoticedShare float64
}

// SweepOutcome is a completed sweep.
type SweepOutcome struct {
	Dimension, Base string
	ProtoA, ProtoB  string
	Points          []SweepPoint
}

// Crossover returns the first swept value at which the notice share drops
// below the threshold, and whether one exists.
func (r SweepOutcome) Crossover(threshold float64) (float64, bool) {
	for _, p := range r.Points {
		if p.NoticedShare < threshold {
			return p.Value, true
		}
	}
	return 0, false
}

// Render prints the sweep as the classic netsweep table.
func (r SweepOutcome) Render(w io.Writer) {
	fmt.Fprintf(w, "Sweep %s over %s: %s vs %s\n", r.Dimension, r.Base, r.ProtoA, r.ProtoB)
	fmt.Fprintf(w, "%12s %12s %12s %8s %9s\n", "value", "SI(A)", "SI(B)", "B/A", "noticed")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%12g %12s %12s %8.2f %8.0f%%\n",
			p.Value, p.SIA.Round(time.Millisecond), p.SIB.Round(time.Millisecond),
			p.GapRatio, p.NoticedShare*100)
	}
}

// parseDimension maps the public dimension names onto the sweep package's.
func parseDimension(name string) (sweep.Dimension, error) {
	switch name {
	case "speed":
		return sweep.Speed, nil
	case "bandwidth":
		return sweep.Bandwidth, nil
	case "rtt":
		return sweep.RTT, nil
	case "loss":
		return sweep.Loss, nil
	}
	return 0, fmt.Errorf("qoe: unknown dimension %q (have: speed, bandwidth, rtt, loss)", name)
}

// Sweep runs the parameter sweep over the lab corpus. Cancelling ctx stops
// between sweep steps.
func Sweep(ctx context.Context, req SweepRequest) (SweepOutcome, error) {
	dim, err := parseDimension(req.Dimension)
	if err != nil {
		return SweepOutcome{}, err
	}
	base, err := resolveNetwork(req.Base)
	if err != nil {
		return SweepOutcome{}, err
	}
	res, err := sweep.Run(ctx, sweep.Config{
		Dim:       dim,
		Base:      base,
		Values:    req.Values,
		ProtoA:    req.ProtoA,
		ProtoB:    req.ProtoB,
		Sites:     webpage.LabCorpus(),
		Reps:      req.Reps,
		PanelSize: req.PanelSize,
		Seed:      req.Seed,
	})
	if err != nil {
		return SweepOutcome{}, err
	}
	out := SweepOutcome{Dimension: dim.String(), Base: base.Name, ProtoA: req.ProtoA, ProtoB: req.ProtoB}
	for _, p := range res.Points {
		out.Points = append(out.Points, SweepPoint{
			Value: p.Value, SIA: p.SIA, SIB: p.SIB,
			GapRatio: p.GapRatio, NoticedShare: p.PNoticeShare,
		})
	}
	return out, nil
}
