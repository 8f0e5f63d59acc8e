package experiments

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/simnet"
)

// Result is the uniform output of one experiment: a human-readable text
// rendering plus CSV and JSON encodings, so cmd/qoebench can honor -format
// for every table and figure without per-experiment dispatch.
type Result interface {
	Render(w io.Writer)
	CSV(w io.Writer) error
	JSON(w io.Writer) error
}

// Experiment is one registered table, figure, ablation, or extension.
//
// Conditions declares the (networks × protocols) recording grid the
// experiment will request from the testbed, so a runner can merge the plans
// of all selected experiments into one prewarm pass; experiments that do not
// use the shared recording cache (e.g. the ablations, which drive the page
// loader directly) return nil, nil.
//
// Run executes against a caller-supplied shared testbed: experiments must
// not build testbeds of their own, so that one recording per condition
// serves every experiment in a batch. Run honors ctx cancellation at its
// natural checkpoints (most relevantly the population shard loops of the
// pop-* family) and returns ctx.Err() when interrupted.
type Experiment interface {
	Name() string
	Conditions() (networks []simnet.NetworkConfig, protocols []string)
	Run(ctx context.Context, tb *core.Testbed, opts Options) (Result, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Experiment{}
)

// canonicalOrder fixes the presentation order of `qoebench all` (the paper's
// artifact order). Experiments registered beyond this list sort alphabetically
// after it.
var canonicalOrder = []string{
	"table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6",
	"ablate-iw", "ablate-pacing", "ablate-hol", "ext-0rtt",
	"pop-ab", "pop-rating", "pop-sweep", "pop-sweep-adaptive",
}

// Register adds an experiment to the registry. It panics on duplicate names
// (registration happens in package init).
func Register(e Experiment) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[e.Name()]; dup {
		panic(fmt.Sprintf("experiments: duplicate registration of %q", e.Name()))
	}
	registry[e.Name()] = e
}

// Lookup returns the experiment registered under name.
func Lookup(name string) (Experiment, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// Names lists all registered experiments in canonical order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	rank := make(map[string]int, len(canonicalOrder))
	for i, n := range canonicalOrder {
		rank[n] = i
	}
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool {
		ra, oka := rank[names[a]]
		rb, okb := rank[names[b]]
		switch {
		case oka && okb:
			return ra < rb
		case oka:
			return true
		case okb:
			return false
		default:
			return names[a] < names[b]
		}
	})
	return names
}

// All returns every registered experiment in canonical order.
func All() []Experiment {
	names := Names()
	out := make([]Experiment, 0, len(names))
	for _, n := range names {
		e, _ := Lookup(n)
		out = append(out, e)
	}
	return out
}

// Select resolves experiment names to registered experiments, expanding the
// pseudo-name "all" to the full canonical set. Overlapping selections (e.g.
// "all fig5") are deduplicated, keeping the first occurrence: re-running an
// experiment in one batch would reproduce identical output anyway, since its
// seed derives from its name.
func Select(names ...string) ([]Experiment, error) {
	var out []Experiment
	seen := map[string]bool{}
	add := func(e Experiment) {
		if !seen[e.Name()] {
			seen[e.Name()] = true
			out = append(out, e)
		}
	}
	for _, n := range names {
		if n == "all" {
			for _, e := range All() {
				add(e)
			}
			continue
		}
		e, ok := Lookup(n)
		if !ok {
			if near := nearestNames(n, Names()); len(near) > 0 {
				return nil, fmt.Errorf("unknown experiment %q (did you mean %s?) (have: %v)",
					n, strings.Join(near, ", "), Names())
			}
			return nil, fmt.Errorf("unknown experiment %q (have: %v)", n, Names())
		}
		add(e)
	}
	return out, nil
}

// nearestNames returns the closest registered names to a mistyped one (up to
// three, in registry order): names within a small edit distance, or sharing a
// prefix of at least three characters — enough to catch "fig7", "pop_ab",
// or "tabel1"-style typos without suggesting unrelated experiments.
func nearestNames(name string, candidates []string) []string {
	maxDist := 2
	if len(name) > 8 {
		maxDist = 3
	}
	var out []string
	for _, c := range candidates {
		d := editDistance(name, c)
		prefix := len(name) >= 3 && len(c) >= 3 && strings.HasPrefix(c, name[:3])
		if d <= maxDist || (prefix && d <= maxDist+2) {
			out = append(out, fmt.Sprintf("%q", c))
			if len(out) == 3 {
				break
			}
		}
	}
	return out
}

// editDistance is the Levenshtein distance between two short names.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// fmtFloat is the shared 4-decimal float encoding of every Result.CSV.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// writeCSV is the shared encoder behind every Result.CSV: the header, then
// one record per row, then the writer's first error.
func writeCSV[T any](w io.Writer, header []string, rows []T, record func(T) []string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range rows {
		if err := cw.Write(record(row)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeJSON is the shared indented-JSON encoder behind every Result.JSON.
func writeJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
