// Package study encodes the design of the paper's two user studies exactly
// as §4 describes them:
//
// Study 1 (A/B, "do users notice?"): pairwise side-by-side comparison of
// the same website under the same network with two protocol stacks; the
// participant answers left / right / no difference plus a confidence.
//
// Study 2 (Rating, "do users care?"): a single video rated on a 7-point
// linear ITU P.851 scale from "extremely bad" to "ideal", mapped to 10..70
// with granularity 1, in one of three framing environments (at work, in
// free time, on a plane).
//
// The package also fixes the per-group session plans (how many videos each
// subject group sees) and the four protocol pairings of Figure 4.
package study

import "fmt"

// Group is the subject population.
type Group int

const (
	Lab Group = iota
	Microworker
	Internet
)

func (g Group) String() string {
	switch g {
	case Lab:
		return "Lab"
	case Microworker:
		return "µWorker"
	case Internet:
		return "Internet"
	}
	return "?"
}

// Groups lists the three populations in paper order.
func Groups() []Group { return []Group{Lab, Microworker, Internet} }

// Environment is the framing context of the rating study.
type Environment int

const (
	AtWork Environment = iota
	FreeTime
	OnPlane
)

func (e Environment) String() string {
	switch e {
	case AtWork:
		return "At Work"
	case FreeTime:
		return "Free Time"
	case OnPlane:
		return "On a plane"
	}
	return "?"
}

// Environments lists the rating-study contexts.
func Environments() []Environment { return []Environment{AtWork, FreeTime, OnPlane} }

// EnvironmentNetworks returns the Table 2 networks a context uses: the
// plane environment shows only the emulated in-flight networks; work and
// free time use the terrestrial ones.
func EnvironmentNetworks(e Environment) []string {
	if e == OnPlane {
		return []string{"DA2GC", "MSS"}
	}
	return []string{"DSL", "LTE"}
}

// Vote is an A/B study answer.
type Vote int

const (
	VoteLeft Vote = iota
	VoteRight
	VoteNoDifference
)

func (v Vote) String() string {
	switch v {
	case VoteLeft:
		return "left"
	case VoteRight:
		return "right"
	case VoteNoDifference:
		return "no difference"
	}
	return "?"
}

// Rating-scale constants: the seven ITU-T P.851 labels spread with
// equidistance over 10..70, selectable at granularity 1.
const (
	RatingMin = 10
	RatingMax = 70
)

// ScaleLabels lists the seven category labels from worst to best.
func ScaleLabels() []string {
	return []string{"extremely bad", "bad", "poor", "fair", "good", "excellent", "ideal"}
}

// ScaleLabel maps a 10..70 rating to its nearest category label.
func ScaleLabel(v float64) string {
	labels := ScaleLabels()
	if v <= RatingMin {
		return labels[0]
	}
	if v >= RatingMax {
		return labels[len(labels)-1]
	}
	idx := int((v - RatingMin) / 10.0)
	if idx >= len(labels) {
		idx = len(labels) - 1
	}
	return labels[idx]
}

// ProtocolPair is one Figure 4 comparison.
type ProtocolPair struct {
	A, B string // Table 1 names; A is the "supposedly faster" variant
}

func (p ProtocolPair) String() string { return fmt.Sprintf("%s vs. %s", p.A, p.B) }

// Pairs returns the four A/B pairings of Figure 4 in plot order.
func Pairs() []ProtocolPair {
	return []ProtocolPair{
		{A: "TCP+", B: "TCP"},
		{A: "QUIC", B: "TCP"},
		{A: "QUIC", B: "TCP+"},
		{A: "QUIC+BBR", B: "TCP+BBR"},
	}
}

// SessionPlan fixes how many stimuli one participant of a group sees, from
// §4.1: lab 28 A/B videos and 11+11+5 rating videos; µWorkers 26 and
// 11+11+5; Internet volunteers 14 and 6+6+3.
type SessionPlan struct {
	ABVideos      int
	RatingWork    int
	RatingFree    int
	RatingPlane   int
	PayoutUSD     float64 // µWorkers only
	TargetMinutes int
}

// PlanFor returns the session plan of a group.
func PlanFor(g Group) SessionPlan {
	switch g {
	case Lab:
		return SessionPlan{ABVideos: 28, RatingWork: 11, RatingFree: 11, RatingPlane: 5, TargetMinutes: 10}
	case Microworker:
		return SessionPlan{ABVideos: 26, RatingWork: 11, RatingFree: 11, RatingPlane: 5, PayoutUSD: 0.75, TargetMinutes: 12}
	default:
		return SessionPlan{ABVideos: 14, RatingWork: 6, RatingFree: 6, RatingPlane: 3, TargetMinutes: 6}
	}
}

// Participation fixes the pre-filter subject counts of Table 3.
type Participation struct {
	AB     int
	Rating int
}

// ParticipationFor returns the paper's raw participation per group
// (Table 3, leftmost column).
func ParticipationFor(g Group) Participation {
	switch g {
	case Lab:
		return Participation{AB: 35, Rating: 35}
	case Microworker:
		return Participation{AB: 487, Rating: 1563}
	default:
		return Participation{AB: 218, Rating: 209}
	}
}

// RatingProtocols lists the five Table 1 stacks shown in the rating study.
func RatingProtocols() []string {
	return []string{"TCP", "TCP+", "TCP+BBR", "QUIC", "QUIC+BBR"}
}
