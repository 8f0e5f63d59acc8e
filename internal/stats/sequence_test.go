package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestConfidenceSequenceAlphaRange(t *testing.T) {
	for _, alpha := range []float64{0, 1, -0.1, 1.5, math.NaN()} {
		if _, err := NewConfidenceSequence(alpha); err == nil {
			t.Errorf("alpha %v: want error", alpha)
		}
	}
	if _, err := NewConfidenceSequence(0.05); err != nil {
		t.Fatalf("alpha 0.05: %v", err)
	}
}

// TestConfidenceSequenceSpendingSchedule pins the schedule: levels increase
// toward 1, and the spent error Σ (1 − level_k) stays below alpha no matter
// how many looks are taken.
func TestConfidenceSequenceSpendingSchedule(t *testing.T) {
	const alpha = 0.05
	cs, err := NewConfidenceSequence(alpha)
	if err != nil {
		t.Fatal(err)
	}
	spent, prev := 0.0, 0.0
	for k := 1; k <= 100000; k++ {
		level := cs.NextLevel()
		if level < prev {
			t.Fatalf("look %d: level %v decreasing (prev %v)", k, level, prev)
		}
		if level <= 0 || level >= 1 {
			t.Fatalf("look %d: level %v outside (0, 1)", k, level)
		}
		spent += 1 - level
		prev = level
	}
	if spent >= alpha {
		t.Fatalf("spent error %v after 1e5 looks >= alpha %v", spent, alpha)
	}
	if cs.Looks() != 100000 {
		t.Fatalf("Looks() = %d, want 100000", cs.Looks())
	}
	// The first look carries most of the budget: 1 − α·6/π².
	var one ConfidenceSequence
	one, _ = NewConfidenceSequence(alpha)
	want := 1 - alpha*6/(math.Pi*math.Pi)
	if got := one.NextLevel(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("first look level %v, want %v", got, want)
	}
}

func TestConfidenceSequenceInsufficientData(t *testing.T) {
	cs, _ := NewConfidenceSequence(0.05)
	var b Binomial
	if _, err := cs.LookBinomial(b); err == nil {
		t.Fatal("zero-trial binomial: want error")
	}
	if cs.Looks() != 0 {
		t.Fatalf("failed looks must not spend budget: Looks() = %d", cs.Looks())
	}
}

// TestConfidenceSequenceBinomialCalibration simulates the null: streams of
// Bernoulli(1/2) votes peeked at every 100 observations against the
// threshold 1/2. An always-valid sequence at α = 0.05 must falsely lock a
// decision (interval excluding 1/2) in at most ~α of the streams; the naive
// fixed-level 95% interval peeked at the same cadence must not be
// calibrated — that gap is the reason the sequence exists.
func TestConfidenceSequenceBinomialCalibration(t *testing.T) {
	const (
		alpha     = 0.05
		threshold = 0.5
		streams   = 400
		votes     = 4000
		peekEvery = 100
	)
	rng := rand.New(rand.NewSource(7))
	falseSeq, falseNaive := 0, 0
	for s := 0; s < streams; s++ {
		cs, err := NewConfidenceSequence(alpha)
		if err != nil {
			t.Fatal(err)
		}
		var b Binomial
		stoppedSeq, stoppedNaive := false, false
		for v := 1; v <= votes; v++ {
			b.Observe(rng.Float64() < threshold)
			if v%peekEvery != 0 {
				continue
			}
			if !stoppedSeq {
				iv, err := cs.LookBinomial(b)
				if err != nil {
					t.Fatal(err)
				}
				if iv.Lo > threshold || iv.Hi < threshold {
					stoppedSeq = true
				}
			}
			if !stoppedNaive {
				iv, err := b.CI(1 - alpha)
				if err != nil {
					t.Fatal(err)
				}
				if iv.Lo > threshold || iv.Hi < threshold {
					stoppedNaive = true
				}
			}
		}
		if stoppedSeq {
			falseSeq++
		}
		if stoppedNaive {
			falseNaive++
		}
	}
	seqRate := float64(falseSeq) / streams
	naiveRate := float64(falseNaive) / streams
	// α plus three standard errors of the Monte-Carlo estimate.
	bound := alpha + 3*math.Sqrt(alpha*(1-alpha)/streams)
	if seqRate > bound {
		t.Fatalf("sequential false-stop rate %.3f exceeds calibration bound %.3f (α=%v)", seqRate, bound, alpha)
	}
	if naiveRate <= bound {
		t.Fatalf("naive repeated 95%% interval false-stop rate %.3f unexpectedly calibrated (≤ %.3f); the test has lost its teeth", naiveRate, bound)
	}
}
