// Package metrics computes the visual Web-performance metrics the paper
// derives from its page-load videos: First Visual Change (FVC), Last Visual
// Change (LVC), Speed Index (SI), Visual Completeness 85% (VC85), and Page
// Load Time (PLT). The input is a visual-progress trace — the time series
// of viewport completeness a video of the loading process carries.
package metrics

import (
	"fmt"
	"math"
	"time"
)

// Point is one visual-progress sample: at time T the viewport was VC
// complete (0..1).
type Point struct {
	T  time.Duration
	VC float64
}

// Trace is the visual record of one page load. Points must be in
// chronological order with non-decreasing VC; PLT is the technical load
// completion (network idle), which can exceed the last visual change when
// non-visual resources finish last.
type Trace struct {
	Points []Point
	PLT    time.Duration
	// Completed is false when the load hit the safety cutoff.
	Completed bool
}

// Validate checks trace invariants.
func (tr *Trace) Validate() error {
	prevT := time.Duration(-1)
	prevVC := -1.0
	for i, p := range tr.Points {
		if p.T < prevT {
			return fmt.Errorf("metrics: point %d time moves backwards", i)
		}
		if p.VC < prevVC-1e-9 {
			return fmt.Errorf("metrics: point %d VC decreases (%f -> %f)", i, prevVC, p.VC)
		}
		if p.VC < 0 || p.VC > 1+1e-9 {
			return fmt.Errorf("metrics: point %d VC %f out of range", i, p.VC)
		}
		prevT, prevVC = p.T, p.VC
	}
	return nil
}

// FVC returns the First Visual Change: the first instant the viewport shows
// anything. Returns 0 and false for a blank trace.
func FVC(tr *Trace) (time.Duration, bool) {
	for _, p := range tr.Points {
		if p.VC > 0 {
			return p.T, true
		}
	}
	return 0, false
}

// LVC returns the Last Visual Change.
func LVC(tr *Trace) (time.Duration, bool) {
	for i := len(tr.Points) - 1; i >= 0; i-- {
		if i == 0 || tr.Points[i].VC > tr.Points[i-1].VC {
			if tr.Points[i].VC > 0 {
				return tr.Points[i].T, true
			}
			return 0, false
		}
	}
	return 0, false
}

// VC85 returns the first time visual completeness reaches 85%.
func VC85(tr *Trace) (time.Duration, bool) {
	return VCAt(tr, 0.85)
}

// VCAt returns the first time visual completeness reaches the threshold.
func VCAt(tr *Trace, threshold float64) (time.Duration, bool) {
	for _, p := range tr.Points {
		if p.VC >= threshold-1e-12 {
			return p.T, true
		}
	}
	return 0, false
}

// SpeedIndex integrates (1 - VC) from 0 until the last visual change — the
// RUM Speed Index. Lower is better; a page that paints most content early
// scores low even if stragglers finish late.
func SpeedIndex(tr *Trace) (time.Duration, bool) {
	lvc, ok := LVC(tr)
	if !ok {
		return 0, false
	}
	var integral float64 // seconds
	prevT := time.Duration(0)
	prevVC := 0.0
	for _, p := range tr.Points {
		if p.T > lvc {
			break
		}
		integral += (1 - prevVC) * (p.T - prevT).Seconds()
		prevT, prevVC = p.T, p.VC
	}
	integral += (1 - prevVC) * (lvc - prevT).Seconds()
	return time.Duration(math.Round(integral * float64(time.Second))), true
}

// Report bundles all five metrics of one load.
type Report struct {
	FVC  time.Duration
	LVC  time.Duration
	SI   time.Duration
	VC85 time.Duration
	PLT  time.Duration
	// Complete is false when any metric was unavailable (blank or aborted
	// trace); such loads are excluded from analysis like stalled videos.
	Complete bool
}

// Compute derives the full metric report from a trace.
func Compute(tr *Trace) Report {
	var r Report
	r.PLT = tr.PLT
	ok := true
	if v, o := FVC(tr); o {
		r.FVC = v
	} else {
		ok = false
	}
	if v, o := LVC(tr); o {
		r.LVC = v
	} else {
		ok = false
	}
	if v, o := SpeedIndex(tr); o {
		r.SI = v
	} else {
		ok = false
	}
	if v, o := VC85(tr); o {
		r.VC85 = v
	} else {
		ok = false
	}
	r.Complete = ok && tr.Completed
	return r
}

// Metric selects one of the five technical metrics by name, as the Fig. 6
// correlation sweep iterates over them.
func (r Report) Metric(name string) (time.Duration, error) {
	switch name {
	case "FVC":
		return r.FVC, nil
	case "LVC":
		return r.LVC, nil
	case "SI":
		return r.SI, nil
	case "VC85":
		return r.VC85, nil
	case "PLT":
		return r.PLT, nil
	}
	return 0, fmt.Errorf("metrics: unknown metric %q", name)
}

// Names lists the metrics in the paper's Figure 6 row order.
func Names() []string { return []string{"FVC", "SI", "VC85", "LVC", "PLT"} }
