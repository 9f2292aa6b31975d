// Package harness is the declarative experiment registry and parallel
// sweep engine behind every entry point in the repo: cmd/califorms-bench,
// cmd/califorms-sim, the sweep service (internal/server behind
// cmd/califorms-server), the perfbench benchmark and the root
// bench_test.go smoke benchmarks.
//
// Each table and figure of the paper's evaluation is a registered
// Experiment. An experiment expands its configuration matrix
// (benchmark × policy × pad × seed, see Matrix) into independent run
// units, shards them across a worker Pool, and folds the ordered
// per-unit results into structured Result records. Results are
// rendered by pluggable emitters (text tables side by side with the
// published values, JSON, CSV — see Emitter).
//
// Determinism is a contract: every run unit derives its RNG seed from
// its matrix coordinates alone, and results are folded in matrix
// order, never completion order. The same Params therefore produce
// byte-identical emitter output at any worker count.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/machine"
)

// Params are the experiment-independent knobs of a sweep.
type Params struct {
	// Visits is the number of steady-state object visits each
	// simulation run performs (the paper's region size).
	Visits int
	// Seeds is the number of layout randomizations ("binaries")
	// averaged per configuration (the paper builds three).
	Seeds int
	// Machine is the base machine the sweeps run on (zero: the
	// default westmere — byte-identical to the pre-machine-axis
	// harness). Experiments that derive sensitivity variants (fig10's
	// +1-cycle column) derive them from this base; experiments that
	// sweep their own machine axis (sens-machine, sens-llc) and the
	// machine-independent ones ignore it.
	Machine machine.Desc
}

// MachineLabel returns the name experiments stamp single-machine
// records with: empty for the default machine — whether left zero or
// selected explicitly (-machine westmere), so the two spellings emit
// byte-identical reports — and the machine name otherwise.
func (p Params) MachineLabel() string {
	if p.Machine.IsZero() || p.Machine == machine.Default() {
		return ""
	}
	return p.Machine.Name
}

// Kind classifies a Result record for the emitters.
type Kind string

const (
	// KindTable is an aligned table: Headers plus Rows.
	KindTable Kind = "table"
	// KindHistogram is an ASCII bar chart; Text holds the rendered
	// chart and Headers/Rows the underlying bins for JSON/CSV.
	KindHistogram Kind = "histogram"
	// KindText is free-form prose (analysis notes, derived summary
	// lines); only Text is set.
	KindText Kind = "text"
)

// Result is one structured output record of an experiment. Table-like
// results carry Headers/Rows; prose and charts carry prerendered
// Text. The engine stamps Experiment with the registry name.
type Result struct {
	Experiment string `json:"experiment"`
	Kind       Kind   `json:"kind"`
	Title      string `json:"title,omitempty"`
	// Machine names the machine a single-machine record was measured
	// on. Empty for the default machine (keeping default output
	// byte-identical across harness versions) and for multi-machine
	// records, whose tables carry a machine column in their rows
	// instead.
	Machine string     `json:"machine,omitempty"`
	Headers []string   `json:"headers,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	Text    string     `json:"text,omitempty"`
}

// Experiment is one registered table or figure reproduction.
type Experiment struct {
	// Name is the registry key ("fig3", "table2", ...).
	Name string
	// Paper names the artifact being reproduced ("Figure 3").
	Paper string
	// Title is a one-line description for listings.
	Title string
	// Run expands the experiment's matrix, shards it over pool, and
	// folds the results. It must be deterministic in (p, seeds).
	Run func(p Params, pool *Pool) []Result
}

// registry holds experiments in registration order, which is the
// canonical report order of `-exp all`.
var registry []Experiment

// Register appends an experiment to the registry. It panics on a
// duplicate or empty name: registration happens at init time and a
// collision is a programming error.
func Register(e Experiment) {
	if e.Name == "" {
		panic("harness: experiment with empty name")
	}
	for _, x := range registry {
		if x.Name == e.Name {
			panic("harness: duplicate experiment " + e.Name)
		}
	}
	registry = append(registry, e)
}

// Get returns the named experiment.
func Get(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Experiments returns the registry in canonical report order.
func Experiments() []Experiment {
	return append([]Experiment(nil), registry...)
}

// Names returns the sorted registry keys (for usage messages).
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment on the pool and stamps its records.
// Cells that failed during the run (panic isolation, watchdog
// timeouts, injected faults) surface as an appended FAILED-cells table
// — present only when failures exist, so healthy reports keep their
// exact byte shape.
func Run(e Experiment, p Params, pool *Pool) []Result {
	rs := e.Run(p, pool)
	if failed := pool.drainPending(); len(failed) > 0 {
		rs = append(rs, failedRecord(failed))
	}
	for i := range rs {
		rs[i].Experiment = e.Name
	}
	return rs
}

// RunByName looks up and runs one experiment.
func RunByName(name string, p Params, pool *Pool) ([]Result, error) {
	e, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("harness: unknown experiment %q", name)
	}
	return Run(e, p, pool), nil
}

// FindTable returns the first cell-bearing result (table or
// histogram) whose title starts with prefix. Consumers that score or
// post-process experiment output (internal/calibrate) address records
// by title rather than by position, so experiments can append records
// without breaking them.
func FindTable(results []Result, prefix string) (Result, bool) {
	for _, r := range results {
		if len(r.Headers) > 0 && strings.HasPrefix(r.Title, prefix) {
			return r, true
		}
	}
	return Result{}, false
}

// FindText returns the first result whose free-form Text contains
// substr (prose records carry no Title to address them by).
func FindText(results []Result, substr string) (Result, bool) {
	for _, r := range results {
		if r.Text != "" && strings.Contains(r.Text, substr) {
			return r, true
		}
	}
	return Result{}, false
}
