// Package participant simulates the study subjects: a psychometric
// perception model that turns the visual difference between two page-load
// videos into A/B votes (Weber-fraction just-noticeable-difference on the
// Speed Index), a MOS-style rating model with environment-dependent
// expectation anchors, and per-group behaviour generators whose misbehaviour
// rates are calibrated from the published Table 3 funnel, so that running
// the conformance filter over a simulated population reproduces the paper's
// participation numbers in expectation.
//
// A vote is a per-stimulus part plus per-vote draws. NewABStimulus and
// NewRatingStimulus compute, once per stimulus cell and voter group, every
// value that depends only on the recordings (notice probability, faster
// side, replay threshold, rating anchor); Model.ABVote and Model.Rate then
// only draw from the participant's random stream.
package participant

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/conformance"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/study"
)

// Model is one participant: a random stream, a group and a stable rating
// offset. What a vote takes from the recordings lives in the stimulus
// (ABStimulus, RatingStimulus), built once per stimulus cell and voter
// group.
type Model struct {
	rng *rand.Rand
	// Group determines the rating noise and response style.
	Group study.Group
	// bias is this participant's stable rating offset.
	bias float64
}

// Perceptual parameters per group: the lab is attentive and low-noise; paid
// crowdworkers are a bit noisier; anonymous Internet volunteers noisiest.
// jnd is the Weber fraction on Speed Index ratios below which a difference
// is imperceptible, sigma the perceptual noise of the log-ratio
// discrimination, ratingSigma the per-answer rating noise.
func groupParams(g study.Group) (jnd, sigma, ratingSigma float64) {
	switch g {
	case study.Lab:
		return 0.08, 0.10, 9.0
	case study.Microworker:
		return 0.08, 0.14, 12.0
	default:
		return 0.08, 0.18, 13.0
	}
}

// salienceDelta is the absolute time difference (seconds) at which half the
// perceptual salience is reached: sub-quarter-second gaps are hard to see in
// a side-by-side video no matter the ratio, multi-second gaps are obvious.
const salienceDelta = 0.4

// New creates a participant of the given group from the supplied random
// stream.
func New(g study.Group, rng *rand.Rand) *Model {
	m := &Model{}
	m.Reinit(g, rng)
	return m
}

// Reinit re-draws a participant in place: it consumes exactly the random
// draws New does and leaves the model identical to a freshly constructed
// one, so population-scale loops can reuse a single Model per worker
// instead of allocating one per synthetic participant.
func (m *Model) Reinit(g study.Group, rng *rand.Rand) {
	*m = Model{
		rng:   rng,
		Group: g,
		bias:  rng.NormFloat64() * 4,
	}
}

// ABStimulus is the deterministic part of an A/B vote: what depends only on
// the two recordings shown side by side and the voter group. Build it once
// per stimulus with NewABStimulus; every vote on it then only draws.
type ABStimulus struct {
	pNotice    float64    // probability the difference is perceived
	faster     study.Vote // the perceptually faster side
	confidence int        // the 1..5 confidence of a noticed vote
	replayExp  float64    // exp(-mean replays): the Poisson draw's threshold
}

// NewABStimulus computes the perceptual evidence of left vs. right for a
// voter of group g. The evidence is the log-ratio of the two Speed Indices
// — the metric the paper later finds to correlate best with its users
// (Fig. 6) — or of the FVCs when that cue is stronger.
func NewABStimulus(g study.Group, left, right metrics.Report) ABStimulus {
	// Two perceptual cues: the overall loading pace (Speed Index) and the
	// moment something first appears (FVC, slightly less salient). Each
	// cue's log-ratio is attenuated by its absolute difference — a 5%
	// speedup is invisible at 200 ms but obvious at 4 s.
	cue := func(a, b time.Duration, weight float64) float64 {
		x := math.Max(a.Seconds(), 1e-3)
		y := math.Max(b.Seconds(), 1e-3)
		delta := math.Abs(x - y)
		atten := delta / (delta + salienceDelta)
		return weight * math.Log(x/y) * atten
	}
	evSI := cue(left.SI, right.SI, 1.0)
	evFVC := cue(left.FVC, right.FVC, 0.7)
	logRatio := evSI // > 0 means right is faster
	if math.Abs(evFVC) > math.Abs(evSI) {
		logRatio = evFVC
	}

	jnd, sigma, _ := groupParams(g)
	s := ABStimulus{
		pNotice: stats.NormalCDF((math.Abs(logRatio) - jnd) / sigma),
		faster:  study.VoteRight,
	}
	if logRatio < 0 {
		s.faster = study.VoteLeft
	}
	s.confidence = 3 + int(math.Round(2*s.pNotice)) // pNotice <= 1: at most 5
	// Unsure participants replay the video; the paper observes more
	// replays on the faster networks, where differences are subtle.
	replayMean := 0.25 + 1.3*(1-s.pNotice)
	if g == study.Lab {
		replayMean *= 1.3 // lab participants replay most (§4.2)
	}
	s.replayExp = math.Exp(-replayMean)
	return s
}

// ABVote casts one vote on a stimulus built for the participant's group and
// returns the vote, a 1..5 confidence, and how often the participant
// replayed the video.
func (m *Model) ABVote(s *ABStimulus) (vote study.Vote, confidence, replays int) {
	replays = m.poisson(s.replayExp)

	if m.rng.Float64() < s.pNotice {
		// Noticed: vote the perceptually faster side, with a small chance
		// of mixing the sides up.
		faster := s.faster
		if m.rng.Float64() < 0.06 {
			if faster == study.VoteRight {
				faster = study.VoteLeft
			} else {
				faster = study.VoteRight
			}
		}
		return faster, s.confidence, replays
	}
	// Not noticed: most admit "no difference", some guess a side with low
	// confidence (the paper accepts such guesses on identical controls
	// when the confidence is low, footnote 3).
	if m.rng.Float64() < 0.80 {
		return study.VoteNoDifference, 1 + m.rng.Intn(2), replays
	}
	if m.rng.Float64() < 0.5 {
		return study.VoteLeft, 1 + m.rng.Intn(2), replays
	}
	return study.VoteRight, 1 + m.rng.Intn(2), replays
}

// Rating-model anchors: the Speed Index at which a context feels "ideal"
// and how fast satisfaction decays per log-unit of slowdown. The plane
// framing lowers expectations (nobody expects fiber at 11 km altitude),
// which is why the paper still sees "poor" rather than floor ratings there.
// The slopes are deliberately shallow relative to the rating noise: absent a
// side-by-side reference, users map a broad band of loading speeds onto the
// same category, which is exactly why the paper's isolated ratings show no
// significant protocol effect while its A/B study does.
func envAnchor(env study.Environment) (refSI float64, slope float64) {
	switch env {
	case study.AtWork:
		return 0.75, 7
	case study.FreeTime:
		return 0.85, 7
	default: // OnPlane
		return 1.5, 9
	}
}

// RatingStimulus is the deterministic part of a rating: the speed
// satisfaction one video earns under an environment framing before the
// rater's bias and noise. Build it once per stimulus with NewRatingStimulus.
type RatingStimulus struct {
	base float64
}

// NewRatingStimulus computes the rating anchor of rep under env.
func NewRatingStimulus(rep metrics.Report, env study.Environment) RatingStimulus {
	ref, slope := envAnchor(env)
	si := math.Max(rep.SI.Seconds(), 1e-3)
	return RatingStimulus{base: 70 - slope*math.Log(si/ref)}
}

// Rate produces the two rating-study answers (speed satisfaction and
// general loading quality) for one video on the 10..70 scale.
func (m *Model) Rate(s *RatingStimulus) (speed, quality float64) {
	_, _, ratingSigma := groupParams(m.Group)
	noise := m.rng.NormFloat64() * ratingSigma
	if m.Group == study.Internet {
		// Anonymous volunteers include erratic raters: a uniform outlier
		// mixture makes the vote distribution visibly non-normal, which is
		// why the paper falls back to medians for this group (Fig. 3).
		if m.rng.Float64() < 0.18 {
			speed = study.RatingMin + m.rng.Float64()*(study.RatingMax-study.RatingMin)
			quality = clampRating(speed + m.rng.NormFloat64()*8)
			return clampRating(speed), quality
		}
	}
	speed = clampRating(s.base + m.bias + noise)
	quality = clampRating(0.85*speed + 0.15*52 + m.rng.NormFloat64()*4)
	return speed, quality
}

func clampRating(v float64) float64 {
	if v < study.RatingMin {
		return study.RatingMin
	}
	if v > study.RatingMax {
		return study.RatingMax
	}
	return v
}

// poisson draws a Poisson variate by Knuth's method, given exp(-mean) as
// threshold (means here are < 3).
func (m *Model) poisson(threshold float64) int {
	k := 0
	p := 1.0
	for {
		p *= m.rng.Float64()
		if p <= threshold {
			return k
		}
		k++
		if k > 50 {
			return k
		}
	}
}

// misbehaviourRates holds the per-rule conditional violation probabilities
// calibrated from Table 3 (drops at rule i divided by survivors of rule
// i-1). Lab sessions are supervised and never violate.
func misbehaviourRates(g study.Group, k conformance.StudyKind) [conformance.RuleCount]float64 {
	switch {
	case g == study.Microworker && k == conformance.AB:
		return [...]float64{0.0329, 0.0637, 0.1950, 0.2451, 0.0000, 0.1082, 0.0251}
	case g == study.Microworker && k == conformance.Rating:
		return [...]float64{0.0441, 0.1158, 0.2172, 0.2911, 0.0136, 0.0858, 0.0711}
	case g == study.Internet && k == conformance.AB:
		return [...]float64{0.0046, 0.0323, 0.0667, 0.1276, 0.0058, 0.0647, 0.0252}
	case g == study.Internet && k == conformance.Rating:
		return [...]float64{0.0239, 0.0490, 0.1134, 0.1163, 0.0066, 0.0728, 0.0143}
	default:
		return [conformance.RuleCount]float64{}
	}
}

// Behaviour samples the conformance-relevant conduct of one session. The
// returned Session has behaviour fields set but no answers yet.
func Behaviour(g study.Group, k conformance.StudyKind, rng *rand.Rand) *conformance.Session {
	s := &conformance.Session{}
	BehaviourInto(s, g, k, rng)
	return s
}

// BehaviourInto samples one session's conduct into a caller-owned Session,
// consuming exactly the random draws Behaviour does and leaving s identical
// to a freshly sampled one (answer slices included: they are reset to nil).
// Population-scale loops reuse a single Session per worker this way instead
// of allocating one per synthetic participant.
func BehaviourInto(s *conformance.Session, g study.Group, k conformance.StudyKind, rng *rand.Rand) {
	rates := misbehaviourRates(g, k)
	*s = conformance.Session{
		Group:           g,
		Kind:            k,
		AllVideosPlayed: rng.Float64() >= rates[0],
		AnyVideoStalled: rng.Float64() < rates[1],
		ControlVideoOK:  rng.Float64() >= rates[5],
		ControlAnswerOK: rng.Float64() >= rates[6],
	}
	// R3: focus loss duration; violators exceed 10 s.
	if rng.Float64() < rates[2] {
		s.MaxFocusLoss = 10*time.Second + time.Duration(rng.ExpFloat64()*float64(20*time.Second))
	} else {
		s.MaxFocusLoss = time.Duration(rng.Float64() * float64(8*time.Second))
	}
	// R4: voting before the first visual change (impatient clickers).
	s.VotedBeforeFVC = rng.Float64() < rates[3]
	// R5: pathological duration.
	plan := study.PlanFor(g)
	base := time.Duration(plan.TargetMinutes) * time.Minute
	s.TotalDuration = base + time.Duration(rng.NormFloat64()*float64(90*time.Second))
	s.MaxQuestionTime = 20*time.Second + time.Duration(rng.ExpFloat64()*float64(15*time.Second))
	if rng.Float64() < rates[4] {
		if rng.Float64() < 0.5 {
			s.TotalDuration = 26*time.Minute + time.Duration(rng.ExpFloat64()*float64(10*time.Minute))
		} else {
			s.MaxQuestionTime = 2*time.Minute + time.Duration(rng.ExpFloat64()*float64(2*time.Minute))
		}
	}
	if s.TotalDuration < 3*time.Minute {
		s.TotalDuration = 3 * time.Minute
	}
}

// Population generates n sessions' behaviour logs for a group and study.
func Population(g study.Group, k conformance.StudyKind, n int, seed int64) []*conformance.Session {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*conformance.Session, n)
	for i := range out {
		out[i] = Behaviour(g, k, rng)
	}
	return out
}
