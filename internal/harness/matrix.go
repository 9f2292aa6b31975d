package harness

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// layoutSeedStride spaces the per-replica layout seeds. The value is
// load-bearing for output compatibility: the pre-harness sweep code
// seeded replica k with k*7919, and the regression tables were
// recorded under those layouts.
const layoutSeedStride = 7919

// Cell is one run unit's coordinate in a Matrix: which benchmark,
// which configuration column (-1 is the shared per-benchmark
// baseline), which layout-randomization replica, and which machine
// column (0 when the matrix has no machine axis).
type Cell struct {
	Bench   int
	Config  int // index into Matrix.Configs; -1 = baseline
	Seed    int
	Machine int // index into Matrix.Machines; 0 without a machine axis
}

// Matrix is the declarative configuration matrix of a performance
// experiment: benchmark × configuration × seed replica × machine,
// plus one uninstrumented baseline run per benchmark per machine that
// every slowdown is measured against.
type Matrix struct {
	Benches []workload.Spec
	// Configs are the configuration columns. Visits and the replica
	// layout seed are filled in per cell; everything else is taken
	// as-is.
	Configs []sim.RunConfig
	// Machine is the base machine of every cell (zero: the default
	// westmere). Configs whose own Machine field is set keep it —
	// they are derived variants of the base machine (fig10's +1-cycle
	// column).
	Machine machine.Desc
	// Machines is the machine axis: when non-empty, every cell runs
	// once per listed machine, overriding Machine and the configs'
	// own Machine fields. The op streams are machine-independent, so
	// all machine columns of a cell share one captured trace (the
	// machine never enters the stream identity, sim.StreamOf).
	Machines []machine.Desc
	// Seeds is the number of layout replicas per cell (<=1 means one,
	// with the config's own LayoutSeed unchanged).
	Seeds int
	// Visits overrides RunConfig.Visits for every unit.
	Visits int
}

func (m Matrix) seeds() int {
	if m.Seeds <= 1 {
		return 1
	}
	return m.Seeds
}

// machines returns the machine-axis width (1 without an axis).
func (m Matrix) machines() int {
	if len(m.Machines) == 0 {
		return 1
	}
	return len(m.Machines)
}

// Cells expands the matrix into its run units in canonical order:
// for each benchmark, the baselines (one per machine) first, then
// configs × seeds × machines. Result folding relies on this order,
// never on completion order.
func (m Matrix) Cells() []Cell {
	nm := m.machines()
	var out []Cell
	for b := range m.Benches {
		for mi := 0; mi < nm; mi++ {
			out = append(out, Cell{Bench: b, Config: -1, Machine: mi})
		}
		for c := range m.Configs {
			for s := 0; s < m.seeds(); s++ {
				for mi := 0; mi < nm; mi++ {
					out = append(out, Cell{Bench: b, Config: c, Seed: s, Machine: mi})
				}
			}
		}
	}
	return out
}

// Config materializes the full RunConfig of one cell.
func (m Matrix) Config(cell Cell) sim.RunConfig {
	var rc sim.RunConfig
	if cell.Config < 0 {
		rc = sim.RunConfig{Policy: sim.PolicyNone, Visits: m.Visits, Machine: m.Machine}
	} else {
		rc = m.Configs[cell.Config]
		rc.Visits = m.Visits
		rc.LayoutSeed += int64(cell.Seed) * layoutSeedStride
		if rc.Machine.IsZero() {
			rc.Machine = m.Machine
		}
	}
	if len(m.Machines) > 0 {
		rc.Machine = m.Machines[cell.Machine]
	}
	return rc
}

// MatrixResult holds every unit result of a sweep, addressable by
// matrix coordinates. The machine axis is the innermost index;
// single-machine matrices read index 0 (the Slowdown/AvgSlowdown
// shorthands do).
type MatrixResult struct {
	Matrix Matrix
	// Base[b][mi] is benchmark b's uninstrumented baseline on machine
	// column mi.
	Base [][]sim.Result
	// Runs[b][c][s][mi] is the (bench, config, seed, machine) unit
	// result. The slots of failed cells (see Pool.FailedCells) hold
	// zero Results.
	Runs [][][][]sim.Result
}

// newMatrixResult allocates the coordinate-addressed result slots —
// the emission stage's sink.
func newMatrixResult(m Matrix) MatrixResult {
	nm := m.machines()
	res := MatrixResult{Matrix: m, Base: make([][]sim.Result, len(m.Benches))}
	res.Runs = make([][][][]sim.Result, len(m.Benches))
	for b := range res.Runs {
		res.Base[b] = make([]sim.Result, nm)
		res.Runs[b] = make([][][]sim.Result, len(m.Configs))
		for c := range res.Runs[b] {
			res.Runs[b][c] = make([][]sim.Result, m.seeds())
			for s := range res.Runs[b][c] {
				res.Runs[b][c][s] = make([]sim.Result, nm)
			}
		}
	}
	return res
}

// emit folds one unit result into its coordinate slot. Slots are
// disjoint per cell, so concurrent emits for distinct cells are safe.
func (r *MatrixResult) emit(cell Cell, res sim.Result) {
	if cell.Config < 0 {
		r.Base[cell.Bench][cell.Machine] = res
	} else {
		r.Runs[cell.Bench][cell.Config][cell.Seed][cell.Machine] = res
	}
}

// Run executes the matrix in three separable stages. Enumeration
// (Cells) expands the declarative matrix into run units in canonical
// order. Scheduling (schedule) serves the units through a stream
// table, which groups them by op stream and serves each group through
// its stream handle: the handle emits stored results, replays a stored
// stream onto the missing machines, and pays a generation pass only
// for a genuinely new stream — captured once and multicast to every
// sibling cell. Emission folds results into coordinate-addressed
// slots. Groups are handed to the pool's workers in submission order;
// output is bit-identical to independent per-cell runs at any worker
// count, warm or cold.
func (m Matrix) Run(pool *Pool) MatrixResult {
	res := newMatrixResult(m)
	m.schedule(pool, m.Cells(), res.emit)
	return res
}

// cellName renders a cell's coordinates for failure reports —
// deterministic text, no addresses, no timing.
func (m Matrix) cellName(cell Cell) string {
	cfg := "baseline"
	if cell.Config >= 0 {
		cfg = fmt.Sprintf("cfg=%d", cell.Config)
	}
	return fmt.Sprintf("%s/%s/seed=%d/machine=%d", m.Benches[cell.Bench].Name, cfg, cell.Seed, cell.Machine)
}

// schedule runs the enumerated cells on the pool through one stream
// table: one unit per op stream, each served through its handle
// against the pool's store (nil: always run). Failed cells land on the
// pool; the group's healthy cells still emit.
func (m Matrix) schedule(pool *Pool, cells []Cell, emit func(Cell, sim.Result)) {
	runs := make([]cellRun, len(cells))
	for i, cell := range cells {
		runs[i] = cellRun{spec: m.Benches[cell.Bench], rc: m.Config(cell)}
	}
	newTable(pool, false).serve(runs,
		func(i int) string { return m.cellName(cells[i]) },
		func(i int, r sim.Result) { emit(cells[i], r) })
}

// SlowdownAt returns benchmark b's slowdown under config c on
// machine column mi versus the same machine's baseline, averaged
// over the seed replicas.
func (r MatrixResult) SlowdownAt(b, c, mi int) float64 {
	sum := 0.0
	for _, runs := range r.Runs[b][c] {
		sum += stats.Slowdown(r.Base[b][mi].Cycles, runs[mi].Cycles)
	}
	return sum / float64(len(r.Runs[b][c]))
}

// Slowdown is SlowdownAt on the first (or only) machine column.
func (r MatrixResult) Slowdown(b, c int) float64 { return r.SlowdownAt(b, c, 0) }

// AvgSlowdownAt returns the arithmetic-mean slowdown of config c on
// machine column mi across all benchmarks (the paper's AVG bars).
func (r MatrixResult) AvgSlowdownAt(c, mi int) float64 {
	var col []float64
	for b := range r.Matrix.Benches {
		col = append(col, r.SlowdownAt(b, c, mi))
	}
	return stats.Mean(col)
}

// AvgSlowdown is AvgSlowdownAt on the first (or only) machine column.
func (r MatrixResult) AvgSlowdown(c int) float64 { return r.AvgSlowdownAt(c, 0) }
