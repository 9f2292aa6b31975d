package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/store"
)

// sweepDef is a sweep workload: registry experiments run back to back
// on one 2-worker pool, rendered as one text report — exactly what
// `califorms-bench -exp <exps> -workers 2` prints.
type sweepDef struct {
	name  string
	exps  []string
	store bool // schedule against a store that set-up creates empty
}

var sweeps = map[string]sweepDef{
	// Every cell is its own op stream: 240 generation passes through
	// machines with califormed lines; no store, no recording, no
	// multicore, no server.
	"policy-cold": {name: "policy-cold", exps: []string{"fig11", "fig12"}},
	// One generated stream feeds four machines (sens-machine) or up to
	// four shared-L3 cores (rate4), and every recording and result is
	// written to a fresh store.
	"fanout-store": {name: "fanout-store", exps: []string{"sens-machine", "rate4"}, store: true},
}

// sweepRig is one set-up sweep: the resolved spec, a fresh pool and,
// for store workloads, a fresh empty store.
type sweepRig struct {
	def  sweepDef
	spec harness.ResolvedSpec
	pool *harness.Pool
	st   *store.Store
	dir  string // the store's directory ("" without a store)
}

func newSweepRig(def sweepDef, cfg config) (*sweepRig, error) {
	spec, err := harness.SweepSpec{Experiments: def.exps, Visits: cfg.size.SweepVisits}.Resolve()
	if err != nil {
		return nil, err
	}
	r := &sweepRig{def: def, spec: spec, pool: harness.NewPool(workers)}
	if def.store {
		r.dir, err = os.MkdirTemp(cfg.dir, "store-")
		if err != nil {
			return nil, err
		}
		r.st, err = store.Open(r.dir, store.Options{})
		if err != nil {
			return nil, err
		}
		r.pool.SetStore(r.st)
	}
	return r, nil
}

// close removes the rig's store.
func (r *sweepRig) close() {
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// unitOut is what one run of the sweep produced and cost.
type unitOut struct {
	report    []byte
	wall, cpu float64 // the whole unit, report included
	emit      float64 // rendering the report
	genPasses uint64
	cells     uint64
	failed    uint64
	puts      uint64
}

// runUnit runs the sweep once on the rig: every experiment, then the
// text report.
func (r *sweepRig) runUnit() (unitOut, error) {
	em, err := harness.NewEmitter("text")
	if err != nil {
		return unitOut{}, err
	}
	gen0 := sim.GenerationPasses()
	c0 := cpuSeconds()
	t0 := time.Now()
	var results []harness.Result
	for _, name := range r.spec.Names {
		e, _ := harness.Get(name)
		results = append(results, harness.Run(e, r.spec.Params, r.pool)...)
	}
	te := time.Now()
	var buf bytes.Buffer
	err = em.Emit(&buf, results)
	end := time.Now()
	u := unitOut{
		report:    buf.Bytes(),
		wall:      end.Sub(t0).Seconds(),
		cpu:       cpuSeconds() - c0,
		emit:      end.Sub(te).Seconds(),
		genPasses: sim.GenerationPasses() - gen0,
		failed:    r.pool.FailedCells(),
	}
	_, u.cells = r.pool.Progress()
	if r.st != nil {
		u.puts = r.st.Counters().Puts
	}
	return u, err
}

// check compares the unit's report and work counts with the pins. A
// failed cell is counted by the caller, not here.
func (u unitOut) check(c *checks, pin sweepPin) {
	c.equal("report sha256", digest(u.report), pin.Digest)
	c.equal("sim.gen_passes", u.genPasses, pin.GenPasses)
	c.equal("harness.cells", u.cells, pin.Cells)
	c.equal("store.puts", u.puts, pin.Puts)
}

// settle collects garbage and returns freed memory to the OS, so every
// unit starts from the same heap state.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// measuredUnit sets up a fresh rig and runs one unit under the
// peak-RSS mark; prepare, when set, runs just before the unit.
func measuredUnit(def sweepDef, cfg config, prepare func(*sweepRig)) (unitOut, float64, error) {
	rig, err := newSweepRig(def, cfg)
	if err != nil {
		return unitOut{}, 0, err
	}
	defer rig.close()
	settle()
	if err := resetPeakRSS(); err != nil {
		return unitOut{}, 0, err
	}
	if prepare != nil {
		prepare(rig)
	}
	u, err := rig.runUnit()
	if err != nil {
		return u, 0, err
	}
	rss, err := peakRSSMB()
	return u, rss, err
}

// sweepGated is a sweep's gated run: repeat the sweep until -seconds
// have passed (at least once), each time on a fresh pool and store,
// and report per-unit medians — of the peak RSS too, which moves with
// where the garbage collector happens to run.
func sweepGated(def sweepDef, cfg config, log io.Writer) (result, error) {
	setups, err := timeSetups(cfg, cfg.size.SweepSetups)
	if err != nil {
		return result{}, err
	}
	host := startHostProbe()
	pin := cfg.pins.sweep(def.name)
	c := &checks{log: log}
	var walls, cpus, peaks []float64
	var attempted, failed uint64
	deadline := time.Now().Add(cfg.seconds)
	for len(walls) == 0 || time.Now().Before(deadline) {
		u, rss, err := measuredUnit(def, cfg, nil)
		if err != nil {
			return result{}, err
		}
		host.sample()
		u.check(c, pin)
		walls = append(walls, u.wall)
		cpus = append(cpus, u.cpu)
		peaks = append(peaks, rss)
		attempted += u.cells
		failed += u.failed
		fmt.Fprintf(log, "unit %d: wall %.3f s, cpu %.3f s, peak RSS %.1f MB, %d cells, %d generation passes\n",
			len(walls), u.wall, u.cpu, rss, u.cells, u.genPasses)
	}
	wall := median(walls)
	fmt.Fprintf(log, "%d units; set-ups %v s\n", len(walls), setups)
	printMetrics(log, host.metrics())
	failed += uint64(c.failures)
	return result{
		Correct:   failed == 0,
		Attempted: int(attempted),
		Failed:    int(failed),
		Metrics: map[string]metric{
			"wall_s":          {wall, "s"},
			"cpu_s":           {median(cpus), "s"},
			"peak_rss_mb":     {median(peaks), "MB"},
			"setup_s":         {median(setups), "s"},
			"sim_instr_per_s": {float64(pin.Instr) / wall, "1/s"},
		},
	}, nil
}
