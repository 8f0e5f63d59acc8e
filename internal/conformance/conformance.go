// Package conformance implements the paper's seven filter rules (§4.1,
// "Conformance Filtering") over per-session behaviour logs, and the
// participation funnel of Table 3. Rules are applied in order, each to the
// survivors of the previous one, exactly as the table reports:
//
//	R1 a video was never played
//	R2 a video stalled
//	R3 focus loss > 10 s during the study
//	R4 a vote was placed before the First Visual Change
//	R5 the study took > 25 min or one question took > 2 min
//	R6 a control video was answered wrong
//	R7 a control question (browser-frame colour) was answered wrong
package conformance

import (
	"fmt"
	"time"

	"repro/internal/study"
)

// StudyKind distinguishes the two studies.
type StudyKind int

const (
	AB StudyKind = iota
	Rating
)

func (k StudyKind) String() string {
	if k == AB {
		return "A/B"
	}
	return "Rating"
}

// Session is one participant's behaviour log.
type Session struct {
	Group study.Group
	Kind  StudyKind

	// Behaviour observed by the study runtime (TheFragebogen instruments
	// exactly these signals).
	AllVideosPlayed bool
	AnyVideoStalled bool
	MaxFocusLoss    time.Duration
	VotedBeforeFVC  bool
	TotalDuration   time.Duration
	MaxQuestionTime time.Duration
	ControlVideoOK  bool
	ControlAnswerOK bool
}

// RuleCount is the number of filter rules.
const RuleCount = 7

// violates reports whether the session breaks rule i (0-based).
func (s *Session) violates(rule int) bool {
	switch rule {
	case 0:
		return !s.AllVideosPlayed
	case 1:
		return s.AnyVideoStalled
	case 2:
		return s.MaxFocusLoss > 10*time.Second
	case 3:
		return s.VotedBeforeFVC
	case 4:
		return s.TotalDuration > 25*time.Minute || s.MaxQuestionTime > 2*time.Minute
	case 5:
		return !s.ControlVideoOK
	case 6:
		return !s.ControlAnswerOK
	}
	return false
}

// Funnel reports Table 3's participation row: the raw count and the
// survivors after each rule.
type Funnel struct {
	Group study.Group
	Kind  StudyKind
	Start int
	After [RuleCount]int
}

// Final returns the post-filter participation (the underlined numbers).
func (f Funnel) Final() int { return f.After[RuleCount-1] }

func (f Funnel) String() string {
	s := fmt.Sprintf("%-9s %-6s %5d", f.Group, f.Kind, f.Start)
	for _, a := range f.After {
		s += fmt.Sprintf(" %5d", a)
	}
	return s
}

// FirstViolation returns the 0-based index of the first rule the session
// violates, or RuleCount when it conforms. Filtering by first violation is
// equivalent to applying R1..R7 in order.
func (s *Session) FirstViolation() int {
	for r := 0; r < RuleCount; r++ {
		if s.violates(r) {
			return r
		}
	}
	return RuleCount
}

// StreamFunnel accumulates the Table 3 funnel one session at a time in O(1)
// memory — the population-scale counterpart of Filter, which must hold every
// session. Shards accumulate independently and merge.
type StreamFunnel struct {
	Group study.Group
	Kind  StudyKind
	start int
	// firstViol[r] counts sessions whose first violated rule is r;
	// firstViol[RuleCount] counts conforming sessions.
	firstViol [RuleCount + 1]int
}

// Observe folds one session in and reports whether it conforms.
func (f *StreamFunnel) Observe(s *Session) bool {
	if f.start == 0 {
		f.Group = s.Group
		f.Kind = s.Kind
	}
	f.start++
	r := s.FirstViolation()
	f.firstViol[r]++
	return r == RuleCount
}

// Merge adds another accumulator's counts.
func (f *StreamFunnel) Merge(o StreamFunnel) {
	if o.start == 0 {
		return
	}
	if f.start == 0 {
		f.Group = o.Group
		f.Kind = o.Kind
	}
	f.start += o.start
	for i, c := range o.firstViol {
		f.firstViol[i] += c
	}
}

// Funnel materializes the Table 3 row: survivors after rule i are the
// sessions whose first violation lies beyond i.
func (f *StreamFunnel) Funnel() Funnel {
	out := Funnel{Group: f.Group, Kind: f.Kind, Start: f.start}
	dropped := 0
	for r := 0; r < RuleCount; r++ {
		dropped += f.firstViol[r]
		out.After[r] = f.start - dropped
	}
	return out
}

// Filter applies R1..R7 in order and returns the surviving sessions plus
// the funnel counts.
func Filter(sessions []*Session) ([]*Session, Funnel) {
	var f Funnel
	if len(sessions) > 0 {
		f.Group = sessions[0].Group
		f.Kind = sessions[0].Kind
	}
	f.Start = len(sessions)
	kept := sessions
	for rule := 0; rule < RuleCount; rule++ {
		var next []*Session
		for _, s := range kept {
			if !s.violates(rule) {
				next = append(next, s)
			}
		}
		kept = next
		f.After[rule] = len(kept)
	}
	return kept, f
}
