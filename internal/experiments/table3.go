package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/participant"
	"repro/internal/simnet"
	"repro/internal/study"
)

// Table3Result carries the six funnels (3 groups × 2 studies).
type Table3Result struct {
	Funnels []conformance.Funnel
}

// table3Exp is the registered "table3" experiment. The funnel is a pure
// participant-population simulation: it records nothing on the testbed.
type table3Exp struct{}

func (table3Exp) Name() string                                   { return "table3" }
func (table3Exp) Conditions() ([]simnet.NetworkConfig, []string) { return nil, nil }
func (table3Exp) Run(_ context.Context, tb *core.Testbed, opts Options) (Result, error) {
	return Table3(opts.Seed), nil
}

func init() { Register(table3Exp{}) }

// Table3 simulates the participant populations of all groups and studies,
// applies R1–R7, and returns the participation funnel (Table 3).
func Table3(seed int64) Table3Result {
	var res Table3Result
	for _, g := range study.Groups() {
		for _, k := range []conformance.StudyKind{conformance.AB, conformance.Rating} {
			var n int
			if k == conformance.AB {
				n = study.ParticipationFor(g).AB
			} else {
				n = study.ParticipationFor(g).Rating
			}
			sessions := participant.Population(g, k, n, seed^int64(g)<<8^int64(k))
			_, funnel := conformance.Filter(sessions)
			res.Funnels = append(res.Funnels, funnel)
		}
	}
	return res
}

// Render prints the funnel in the paper's Table 3 layout.
func (r Table3Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 3: participation after each filter rule (final underlined in paper)\n")
	fmt.Fprintf(w, "%-9s %-6s %5s", "Group", "Study", "-")
	for i := 1; i <= conformance.RuleCount; i++ {
		fmt.Fprintf(w, " %5s", fmt.Sprintf("R%d", i))
	}
	fmt.Fprintln(w)
	for _, f := range r.Funnels {
		fmt.Fprintln(w, f.String())
	}
}

// CSV writes the participation funnel, one row per (group, study).
func (r Table3Result) CSV(w io.Writer) error {
	header := []string{"group", "study", "start"}
	for i := 1; i <= conformance.RuleCount; i++ {
		header = append(header, fmt.Sprintf("after_r%d", i))
	}
	return writeCSV(w, header, r.Funnels, func(fu conformance.Funnel) []string {
		rec := []string{fu.Group.String(), fu.Kind.String(), strconv.Itoa(fu.Start)}
		for _, a := range fu.After {
			rec = append(rec, strconv.Itoa(a))
		}
		return rec
	})
}

// JSON writes the full result as indented JSON.
func (r Table3Result) JSON(w io.Writer) error { return writeJSON(w, r) }

// Funnel returns the funnel for a group and study kind.
func (r Table3Result) Funnel(g study.Group, k conformance.StudyKind) (conformance.Funnel, bool) {
	for _, f := range r.Funnels {
		if f.Group == g && f.Kind == k {
			return f, true
		}
	}
	return conformance.Funnel{}, false
}
