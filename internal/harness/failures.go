package harness

// Panic isolation: the sweep engine recovers per-cell panics — a
// workload kernel bug, an injected fault, a watchdog timeout — into
// structured CellError records instead of crashing the process.
// Healthy cells complete normally; failed cells leave their result
// slots zero, are recorded on the sweep's Pool, and surface in the
// report as a schema-stable "FAILED cells" table (present only when
// failures exist) that every emitter renders. cmd/califorms-bench maps
// a non-zero Pool.FailedCells to exit code 3, partial failure.
//
// Two determinism caveats, both documented in DESIGN.md §17: which
// cells fail under rate-based fault injection depends on scheduling
// (the error model, not the failure set, is the invariant), and
// watchdog timeouts depend on wall clock. Real per-cell panics are
// pure functions of the cell and fail identically at any worker count.

import (
	"fmt"
	"os"
	"runtime/debug"
	"sort"

	"repro/internal/faultinject"
	"repro/internal/sim"
)

// CellError is one failed run unit. Stack is diagnostic only: it goes
// to stderr, never into emitter output (addresses are nondeterministic).
type CellError struct {
	Cell string `json:"cell"` // deterministic cell coordinates
	// Stage is where the cell failed: "capture" (its stream's
	// generation pass), "replay" (its replay of a stored recording),
	// "mix" (a multicore mix unit) or "task" (a panic past every guard,
	// caught by the pool's backstop).
	Stage string `json:"stage"`
	Err   string `json:"error"`
	Stack string `json:"-"`
}

func sortCellErrors(out []CellError) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cell != out[j].Cell {
			return out[i].Cell < out[j].Cell
		}
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Err < out[j].Err
	})
}

// logFailure reports one failed cell on stderr (with the stack, when
// the panic was not an already-classified injection or timeout).
func logFailure(ce CellError) {
	fmt.Fprintf(os.Stderr, "harness: cell FAILED: %s [%s]: %s\n", ce.Cell, ce.Stage, ce.Err)
	if ce.Stack != "" {
		fmt.Fprintf(os.Stderr, "%s\n", ce.Stack)
	}
}

// FailedTitle titles the failure record appended to an experiment's
// results when cells failed. The record is schema-stable: it exists
// only when failures exist, so fully healthy reports are byte-identical
// to pre-failure-layer output.
const FailedTitle = "FAILED cells"

func failedRecord(failed []CellError) Result {
	r := Result{Kind: KindTable, Title: FailedTitle, Headers: []string{"cell", "stage", "error"}}
	for _, ce := range failed {
		r.Rows = append(r.Rows, []string{ce.Cell, ce.Stage, ce.Err})
	}
	return r
}

// recoveredPanic is a recovered per-cell panic, classified for
// reporting.
type recoveredPanic struct {
	msg   string
	stack string
}

// runRecovered runs f, converting a panic into a classified
// description. Injected panics and watchdog timeouts carry no stack —
// their provenance is the message; anything else is a real bug and
// keeps its stack for stderr.
func runRecovered(f func()) (rp *recoveredPanic) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		rp = &recoveredPanic{msg: panicMessage(r)}
		switch r.(type) {
		case faultinject.InjectedPanic, sim.CellTimeout:
		default:
			rp.stack = string(debug.Stack())
		}
	}()
	f()
	return nil
}

func panicMessage(r any) string {
	switch v := r.(type) {
	case error:
		return v.Error()
	default:
		return fmt.Sprintf("panic: %v", v)
	}
}
