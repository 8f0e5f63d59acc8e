// Package video stands in for the paper's screen recordings: each page load
// produces a visual-progress trace, the exact information a video of the
// browser viewport carries for the study. The package records repeated
// visits, selects the "typical" recording (closest to the mean PLT, the
// paper's §3 selection rule inspired by Zimmermann et al.), composes
// side-by-side A/B videos, and produces the control stimuli the conformance
// rules R6/R7 rely on (delayed/identical variants, browser-frame colours).
package video

import (
	"fmt"
	"math"
	"time"

	"repro/internal/browser"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/webpage"
)

// FrameColor is the colour of the browser frame rendered around each video,
// asked back by the R7 control question. Colours are colourblind-safe per
// the paper.
type FrameColor int

const (
	Red FrameColor = iota
	Green
	Blue
)

func (c FrameColor) String() string {
	switch c {
	case Red:
		return "red"
	case Green:
		return "green"
	case Blue:
		return "blue"
	}
	return "?"
}

// Recording is one captured page-load video.
type Recording struct {
	Site     string
	Network  string
	Protocol string
	Seed     int64
	Trace    metrics.Trace
	Report   metrics.Report
	// Retransmissions carried over from the load for the §4.3 analysis.
	Retransmissions uint64
	Frame           FrameColor
}

// Record loads the site n times under the given network and protocol
// (distinct deterministic seeds) and returns all recordings — the paper
// records each condition at least 31 times.
func Record(site *webpage.Site, netCfg simnet.NetworkConfig, stack transport.Stack, n int, baseSeed int64) []Recording {
	recs := make([]Recording, 0, n)
	for i := 0; i < n; i++ {
		seed := baseSeed + int64(i)*1_000_003
		res := browser.Load(site, browser.Config{Network: netCfg, Proto: stack, Seed: seed})
		recs = append(recs, Recording{
			Site:            site.Name,
			Network:         netCfg.Name,
			Protocol:        stack.Name,
			Seed:            seed,
			Trace:           res.Trace,
			Report:          res.Report,
			Retransmissions: res.Retransmissions,
			Frame:           FrameColor(((seed % 3) + 3) % 3),
		})
	}
	return recs
}

// SelectTypical returns the recording whose PLT is closest to the mean PLT
// over all complete recordings — the paper's rule for picking the video
// that represents a condition.
func SelectTypical(recs []Recording) (Recording, error) {
	var sum float64
	var n int
	for _, r := range recs {
		if r.Report.Complete {
			sum += r.Report.PLT.Seconds()
			n++
		}
	}
	if n == 0 {
		return Recording{}, fmt.Errorf("video: no complete recordings")
	}
	mean := sum / float64(n)
	best := -1
	bestDist := math.Inf(1)
	for i, r := range recs {
		if !r.Report.Complete {
			continue
		}
		if d := math.Abs(r.Report.PLT.Seconds() - mean); d < bestDist {
			bestDist = d
			best = i
		}
	}
	return recs[best], nil
}

// ABVideo is a side-by-side composition of two recordings of the same site
// under the same network with different protocol stacks.
type ABVideo struct {
	Left, Right Recording
}

// NewABVideo pairs two recordings; it enforces the study design invariant
// that only the protocol differs.
func NewABVideo(left, right Recording) (ABVideo, error) {
	if left.Site != right.Site || left.Network != right.Network {
		return ABVideo{}, fmt.Errorf("video: A/B pair must share site and network (%s/%s vs %s/%s)",
			left.Site, left.Network, right.Site, right.Network)
	}
	return ABVideo{Left: left, Right: right}, nil
}

// Duration returns how long the (composed) video runs: the slower side's
// last visual event plus a small trailing margin.
func (v ABVideo) Duration() time.Duration {
	d := v.Left.Report.PLT
	if r := v.Right.Report.PLT; r > d {
		d = r
	}
	return d + 500*time.Millisecond
}
