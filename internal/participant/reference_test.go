package participant

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/prng"
	"repro/internal/stats"
	"repro/internal/study"
)

// refABVote is the A/B vote model as one function, evidence and draws
// together, computed afresh for every vote: the reference that the split
// into NewABStimulus and Model.ABVote must match draw for draw.
func refABVote(rng *rand.Rand, g study.Group, left, right metrics.Report) (vote study.Vote, confidence, replays int) {
	jnd, sigma, _ := groupParams(g)
	cue := func(a, b time.Duration, weight float64) float64 {
		x := math.Max(a.Seconds(), 1e-3)
		y := math.Max(b.Seconds(), 1e-3)
		delta := math.Abs(x - y)
		atten := delta / (delta + salienceDelta)
		return weight * math.Log(x/y) * atten
	}
	evSI := cue(left.SI, right.SI, 1.0)
	evFVC := cue(left.FVC, right.FVC, 0.7)
	logRatio := evSI
	if math.Abs(evFVC) > math.Abs(evSI) {
		logRatio = evFVC
	}
	pNotice := stats.NormalCDF((math.Abs(logRatio) - jnd) / sigma)

	replayMean := 0.25 + 1.3*(1-pNotice)
	if g == study.Lab {
		replayMean *= 1.3
	}
	l := math.Exp(-replayMean)
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			break
		}
		replays++
		if replays > 50 {
			break
		}
	}

	if rng.Float64() < pNotice {
		faster := study.VoteRight
		if logRatio < 0 {
			faster = study.VoteLeft
		}
		if rng.Float64() < 0.06 {
			if faster == study.VoteRight {
				faster = study.VoteLeft
			} else {
				faster = study.VoteRight
			}
		}
		confidence = 3 + int(math.Round(2*pNotice))
		if confidence > 5 {
			confidence = 5
		}
		return faster, confidence, replays
	}
	if rng.Float64() < 0.80 {
		return study.VoteNoDifference, 1 + rng.Intn(2), replays
	}
	if rng.Float64() < 0.5 {
		return study.VoteLeft, 1 + rng.Intn(2), replays
	}
	return study.VoteRight, 1 + rng.Intn(2), replays
}

// refRate is the rating model as one function, anchor and draws together:
// the reference for NewRatingStimulus and Model.Rate.
func refRate(rng *rand.Rand, g study.Group, bias float64, rep metrics.Report, env study.Environment) (speed, quality float64) {
	ref, slope := envAnchor(env)
	si := math.Max(rep.SI.Seconds(), 1e-3)
	base := 70 - slope*math.Log(si/ref)

	_, _, ratingSigma := groupParams(g)
	noise := rng.NormFloat64() * ratingSigma
	if g == study.Internet {
		if rng.Float64() < 0.18 {
			speed = study.RatingMin + rng.Float64()*(study.RatingMax-study.RatingMin)
			quality = clampRating(speed + rng.NormFloat64()*8)
			return clampRating(speed), quality
		}
	}
	speed = clampRating(base + bias + noise)
	quality = clampRating(0.85*speed + 0.15*52 + rng.NormFloat64()*4)
	return speed, quality
}

func reportOf(si, fvc time.Duration) metrics.Report {
	return metrics.Report{FVC: fvc, SI: si, VC85: si, LVC: si, PLT: si, Complete: true}
}

const ms = time.Millisecond

// TestABStimulusMatchesReference casts 1,000 votes per group and report pair
// from the reference and from a prebuilt stimulus on two random streams of
// the same seed: every vote, confidence and replay count must agree, and so
// must the next draw of each stream afterwards.
func TestABStimulusMatchesReference(t *testing.T) {
	pairs := []struct {
		name        string
		left, right metrics.Report
	}{
		{"equal", reportOf(2000*ms, 1000*ms), reportOf(2000*ms, 1000*ms)},
		{"sub-ms both", reportOf(500*time.Microsecond, 200*time.Microsecond), reportOf(0, 0)},
		{"sub-ms left", reportOf(300*time.Microsecond, 100*time.Microsecond), reportOf(300*ms, 150*ms)},
		{"fvc outweighs si", reportOf(2000*ms, 400*ms), reportOf(2050*ms, 1500*ms)},
		{"left faster", reportOf(1500*ms, 700*ms), reportOf(3000*ms, 1500*ms)},
		{"right faster", reportOf(4000*ms, 2000*ms), reportOf(2000*ms, 1000*ms)},
		{"subtle", reportOf(2000*ms, 1000*ms), reportOf(1960*ms, 980*ms)},
		{"near jnd", reportOf(2000*ms, 1000*ms), reportOf(1700*ms, 850*ms)},
	}
	for _, g := range []study.Group{study.Lab, study.Microworker, study.Internet} {
		for pi, pair := range pairs {
			seed := int64(g)<<8 | int64(pi)
			refRng := rand.New(rand.NewSource(seed))
			var m Model
			m.Reinit(g, prng.New(seed))
			refRng.NormFloat64() // the bias draw Reinit made
			stim := NewABStimulus(g, pair.left, pair.right)
			for i := 0; i < 1000; i++ {
				wv, wc, wr := refABVote(refRng, g, pair.left, pair.right)
				gv, gc, gr := m.ABVote(&stim)
				if gv != wv || gc != wc || gr != wr {
					t.Fatalf("%v %s vote %d: stimulus (%v, %d, %d), reference (%v, %d, %d)",
						g, pair.name, i, gv, gc, gr, wv, wc, wr)
				}
			}
			if got, want := m.rng.Int63(), refRng.Int63(); got != want {
				t.Fatalf("%v %s: streams diverge after the votes: %d vs %d", g, pair.name, got, want)
			}
		}
	}
}

// TestRatingStimulusMatchesReference is the rating counterpart: every
// group, environment and report, 1,000 ratings each.
func TestRatingStimulusMatchesReference(t *testing.T) {
	reps := []metrics.Report{
		reportOf(300*time.Microsecond, 100*time.Microsecond), // SI clamped to 1 ms
		reportOf(800*ms, 400*ms),
		reportOf(5000*ms, 2000*ms),
		reportOf(60*time.Second, 10*time.Second), // clamps at the scale floor
	}
	for _, g := range []study.Group{study.Lab, study.Microworker, study.Internet} {
		for ei, env := range study.Environments() {
			for ri, rep := range reps {
				seed := int64(g)<<16 | int64(ei)<<8 | int64(ri)
				refRng := rand.New(rand.NewSource(seed))
				var m Model
				m.Reinit(g, prng.New(seed))
				bias := refRng.NormFloat64() * 4
				stim := NewRatingStimulus(rep, env)
				for i := 0; i < 1000; i++ {
					ws, wq := refRate(refRng, g, bias, rep, env)
					gs, gq := m.Rate(&stim)
					if gs != ws || gq != wq {
						t.Fatalf("%v %v report %d rating %d: stimulus (%v, %v), reference (%v, %v)",
							g, env, ri, i, gs, gq, ws, wq)
					}
				}
				if got, want := m.rng.Int63(), refRng.Int63(); got != want {
					t.Fatalf("%v %v report %d: streams diverge after the ratings: %d vs %d", g, env, ri, got, want)
				}
			}
		}
	}
}
