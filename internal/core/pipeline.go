package core

import (
	"repro/internal/conformance"
	"repro/internal/participant"
	"repro/internal/prng"
	"repro/internal/simnet"
	"repro/internal/study"
	"repro/internal/video"
)

// ABCondition is one stimulus of the A/B study: the typical videos of two
// protocol stacks for the same site and network, composed side by side.
// Sides are assigned deterministically per condition so that the
// "supposedly faster" variant is not always on the same side.
type ABCondition struct {
	Pair    study.ProtocolPair
	Network string
	Site    string
	Video   video.ABVideo
	// AOnLeft records which side carries Pair.A.
	AOnLeft bool
}

// ABConditions builds the full Figure 4 condition grid: the four protocol
// pairs over all networks and testbed sites. It is the one home of the side
// assignment rule; the population A/B study builds its cells from it too.
func (tb *Testbed) ABConditions(networks []simnet.NetworkConfig) ([]ABCondition, error) {
	pairs := study.Pairs()
	out := make([]ABCondition, 0, len(pairs)*len(networks)*len(tb.Scale.Sites))
	for _, pair := range pairs {
		for _, net := range networks {
			for _, site := range tb.Scale.Sites {
				a, err := tb.Typical(site, net, pair.A)
				if err != nil {
					return nil, err
				}
				b, err := tb.Typical(site, net, pair.B)
				if err != nil {
					return nil, err
				}
				aLeft := hash(condKey(site.Name, net.Name, pair.String()))%2 == 0
				var v video.ABVideo
				if aLeft {
					v, err = video.NewABVideo(a, b)
				} else {
					v, err = video.NewABVideo(b, a)
				}
				if err != nil {
					return nil, err
				}
				out = append(out, ABCondition{
					Pair: pair, Network: net.Name, Site: site.Name,
					Video: v, AOnLeft: aLeft,
				})
			}
		}
	}
	return out, nil
}

// ABOutcome is the raw result of the A/B study simulation: vote counts per
// condition plus the conformance funnel.
type ABOutcome struct {
	Conditions []ABCondition
	// Per-condition tallies, index-aligned with Conditions. VotesA counts
	// votes for the pair's A variant (the supposedly faster one).
	VotesA, VotesB, VotesNone []int
	ReplaySum                 []int
	VoteCount                 []int
	Funnel                    conformance.Funnel
}

// RunABStudy simulates one subject group performing the A/B study over the
// given conditions: behaviour generation, conformance filtering, and
// JND-model voting by the survivors, each on their session plan's number of
// randomly assigned conditions.
func RunABStudy(group study.Group, conditions []ABCondition, seed int64) ABOutcome {
	sessions := participant.Population(group, conformance.AB, study.ParticipationFor(group).AB, seed)
	kept, funnel := conformance.Filter(sessions)

	out := ABOutcome{
		Conditions: conditions,
		VotesA:     make([]int, len(conditions)),
		VotesB:     make([]int, len(conditions)),
		VotesNone:  make([]int, len(conditions)),
		ReplaySum:  make([]int, len(conditions)),
		VoteCount:  make([]int, len(conditions)),
		Funnel:     funnel,
	}
	stimuli := make([]participant.ABStimulus, len(conditions))
	for i, cond := range conditions {
		stimuli[i] = participant.NewABStimulus(group, cond.Video.Left.Report, cond.Video.Right.Report)
	}
	rng := prng.New(seed ^ 0xAB)
	plan := study.PlanFor(group)
	scratch := make([]int, len(conditions))
	var model participant.Model
	for range kept {
		model.Reinit(group, rng)
		for _, ci := range pickConditionsInto(rng, scratch, len(conditions), plan.ABVideos) {
			cond := &conditions[ci]
			vote, _, replays := model.ABVote(&stimuli[ci])
			out.VoteCount[ci]++
			out.ReplaySum[ci] += replays
			switch vote {
			case study.VoteNoDifference:
				out.VotesNone[ci]++
			case study.VoteLeft:
				if cond.AOnLeft {
					out.VotesA[ci]++
				} else {
					out.VotesB[ci]++
				}
			case study.VoteRight:
				if cond.AOnLeft {
					out.VotesB[ci]++
				} else {
					out.VotesA[ci]++
				}
			}
		}
	}
	return out
}

// ABShare aggregates vote shares for one (pair, network) cell of Figure 4.
type ABShare struct {
	Pair       study.ProtocolPair
	Network    string
	ShareA     float64 // prefers the supposedly faster variant
	ShareNone  float64
	ShareB     float64
	AvgReplays float64
	N          int
}

// Shares aggregates the outcome into Figure 4's (pair × network) cells.
func (o *ABOutcome) Shares() []ABShare {
	type key struct {
		pair study.ProtocolPair
		net  string
	}
	agg := map[key]*ABShare{}
	var order []key
	for i, cond := range o.Conditions {
		k := key{cond.Pair, cond.Network}
		sh := agg[k]
		if sh == nil {
			sh = &ABShare{Pair: cond.Pair, Network: cond.Network}
			agg[k] = sh
			order = append(order, k)
		}
		sh.ShareA += float64(o.VotesA[i])
		sh.ShareB += float64(o.VotesB[i])
		sh.ShareNone += float64(o.VotesNone[i])
		sh.AvgReplays += float64(o.ReplaySum[i])
		sh.N += o.VoteCount[i]
	}
	out := make([]ABShare, 0, len(order))
	for _, k := range order {
		sh := agg[k]
		if sh.N > 0 {
			n := float64(sh.N)
			sh.ShareA /= n
			sh.ShareB /= n
			sh.ShareNone /= n
			sh.AvgReplays /= n
		}
		out = append(out, *sh)
	}
	return out
}

// RatingCondition is one stimulus of the rating study.
type RatingCondition struct {
	Protocol    string
	Network     string
	Site        string
	Environment study.Environment
	Rec         video.Recording
}

// RatingConditions builds the rating grid: for each environment, its
// networks (work/free: DSL+LTE; plane: DA2GC+MSS) crossed with all five
// stacks and the testbed sites.
func (tb *Testbed) RatingConditions() ([]RatingCondition, error) {
	var out []RatingCondition
	for _, env := range study.Environments() {
		for _, netName := range study.EnvironmentNetworks(env) {
			net, err := simnet.NetworkByName(netName)
			if err != nil {
				return nil, err
			}
			for _, prot := range study.RatingProtocols() {
				for _, site := range tb.Scale.Sites {
					rec, err := tb.Typical(site, net, prot)
					if err != nil {
						return nil, err
					}
					out = append(out, RatingCondition{
						Protocol: prot, Network: netName, Site: site.Name,
						Environment: env, Rec: rec,
					})
				}
			}
		}
	}
	return out, nil
}

// RatingOutcome is the raw rating-study result: per-condition vote vectors.
type RatingOutcome struct {
	Conditions []RatingCondition
	Speed      [][]float64 // speed-satisfaction votes per condition
	Quality    [][]float64 // loading-quality votes per condition
	Funnel     conformance.Funnel
}

// RunRatingStudy simulates one subject group performing the rating study.
// Each surviving participant rates their session plan's number of videos
// per environment, drawn randomly from that environment's conditions.
func RunRatingStudy(group study.Group, conditions []RatingCondition, seed int64) RatingOutcome {
	sessions := participant.Population(group, conformance.Rating, study.ParticipationFor(group).Rating, seed)
	kept, funnel := conformance.Filter(sessions)

	out := RatingOutcome{
		Conditions: conditions,
		Speed:      make([][]float64, len(conditions)),
		Quality:    make([][]float64, len(conditions)),
		Funnel:     funnel,
	}
	// Environment-local condition indices.
	byEnv := map[study.Environment][]int{}
	stimuli := make([]participant.RatingStimulus, len(conditions))
	for i, c := range conditions {
		byEnv[c.Environment] = append(byEnv[c.Environment], i)
		stimuli[i] = participant.NewRatingStimulus(c.Rec.Report, c.Environment)
	}
	plan := study.PlanFor(group)
	perEnv := map[study.Environment]int{
		study.AtWork:   plan.RatingWork,
		study.FreeTime: plan.RatingFree,
		study.OnPlane:  plan.RatingPlane,
	}
	maxEnvCells := 0
	for _, idxs := range byEnv {
		if len(idxs) > maxEnvCells {
			maxEnvCells = len(idxs)
		}
	}
	rng := prng.New(seed ^ 0x5A7E)
	scratch := make([]int, maxEnvCells)
	var model participant.Model
	for range kept {
		model.Reinit(group, rng)
		for _, env := range study.Environments() { // fixed order: determinism
			count := perEnv[env]
			idxs := byEnv[env]
			if len(idxs) == 0 {
				continue
			}
			for _, pick := range pickConditionsInto(rng, scratch, len(idxs), count) {
				ci := idxs[pick]
				speed, quality := model.Rate(&stimuli[ci])
				out.Speed[ci] = append(out.Speed[ci], speed)
				out.Quality[ci] = append(out.Quality[ci], quality)
			}
		}
	}
	return out
}

// pickConditionsInto selects min(n, count) distinct indices into scratch
// (capacity >= n). When a random subset is needed it consumes exactly the
// draws rand.Perm(n) would — including the i=0 Intn(1) draw — so swapping in
// the scratch version cannot move any downstream random number.
func pickConditionsInto(rng *prng.Rand, scratch []int, n, count int) []int {
	out := scratch[:n]
	if count >= n {
		for i := range out {
			out[i] = i
		}
		return out
	}
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		out[i] = out[j]
		out[j] = i
	}
	return out[:count]
}
