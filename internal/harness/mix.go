package harness

// This file is the multiprogrammed-mix layer over internal/multicore:
// the Mix experiment kind expands {benchmark tuples} × {protected
// configuration} × {core counts} × {seed replicas} through the same
// stream table the single-core Matrix uses — one decision script per
// benchmark, one handle per distinct op stream (benchmark × config
// variant × layout seed, with the baseline's layout fields normalized
// away by sim.StreamOf) — and replays the recordings onto shared-L3
// machines. Stage one serves every stream's solo result; stage two
// fans the recordings out across the mix machines, loading or
// capturing each only when a unit result is missing. Both stages shard
// over the worker Pool into index-addressed slots, so mix output is
// byte-identical at any worker count, and a one-core mix reproduces
// the single-core engine's results bit for bit.
//
// The mix experiments themselves (mix2, mix4, rate4, rate8) are
// registered by the init below, which runs after experiments.go's by
// file order, appending them to the canonical report order.

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/multicore"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// MixTuple is one multiprogrammed workload mix: the benchmarks
// assigned to the machine's core slots. A tuple shorter than the core
// count is tiled (slot i runs Benches[i%len]) — a single-benchmark
// tuple on an N-core machine is SPECrate-style homogeneous rate mode.
type MixTuple struct {
	Name    string
	Benches []workload.Spec
}

// bench returns the benchmark of core slot i.
func (t MixTuple) bench(i int) workload.Spec { return t.Benches[i%len(t.Benches)] }

// Mix is the declarative mix experiment: every tuple runs at every
// core count, under the protected Config and under the uninstrumented
// baseline, with Seeds layout replicas of the protected side.
type Mix struct {
	Tuples []MixTuple
	// Config is the protected configuration column; the baseline is
	// derived from it (PolicyNone, same machine overrides). Visits and
	// the per-replica layout seed are filled in per cell.
	Config sim.RunConfig
	// Cores lists the machine widths to sweep (1 reproduces the
	// single-core engine exactly). Empty means one width: the
	// machine's own nominal core count (machine.Desc.Cores).
	Cores  []int
	Seeds  int
	Visits int
}

func (mx Mix) seeds() int {
	if mx.Seeds <= 1 {
		return 1
	}
	return mx.Seeds
}

// variantConfig is variant v's configuration, mirroring Matrix.Config's
// cell materialization: the baseline (v == 0) is policy-free and
// seed-normalized (its layouts ignore pads and seeds), and protected
// replica k = v-1 shifts the layout seed by k*layoutSeedStride.
func (mx Mix) variantConfig(v int) sim.RunConfig {
	if v == 0 {
		return sim.RunConfig{Policy: sim.PolicyNone, Visits: mx.Visits, Machine: mx.Config.Machine}
	}
	rc := mx.Config
	rc.Visits = mx.Visits
	rc.LayoutSeed += int64(v-1) * layoutSeedStride
	return rc
}

// benches returns the distinct benchmarks across the tuples in
// first-appearance order, with a name index.
func (mx Mix) benches() ([]workload.Spec, map[string]int) {
	var out []workload.Spec
	idx := make(map[string]int)
	for _, t := range mx.Tuples {
		for _, b := range t.Benches {
			if _, ok := idx[b.Name]; !ok {
				idx[b.Name] = len(out)
				out = append(out, b)
			}
		}
	}
	return out, idx
}

// MixResult holds every unit result of a mix sweep, addressable by
// (tuple, core-count index, seed, core slot) coordinates.
type MixResult struct {
	Mix     Mix
	Benches []workload.Spec
	// SoloBase[b] / SoloProt[b][s] are the streams' single-core
	// results — identical to sim.Run of the same cell.
	SoloBase []sim.Result
	SoloProt [][]sim.Result
	// MixBase[t][ci] / MixProt[t][ci][s] are the multicore runs: per-
	// core results plus the shared-L3 view. The slots of failed units
	// (see Pool.FailedCells) hold one zero result per core, so they
	// render like failed Matrix cells; a failed capture also fails the
	// mix units that needed its recording.
	MixBase [][]multicore.RunResult
	MixProt [][][]multicore.RunResult

	benchIdx map[string]int
}

// Run executes the mix sweep on the pool through one stream table:
// stage one serves each stream's solo result through its handle, stage
// two replays the handles' recordings across every (tuple, core count,
// variant, seed) machine. Results are deterministic at any worker
// count.
func (mx Mix) Run(pool *Pool) MixResult {
	if len(mx.Cores) == 0 {
		// No explicit width axis: run the machine at its own nominal
		// core count. mx is a value; the normalized copy is what lands
		// in the result's Mix, so the coordinate methods see it too.
		mx.Cores = []int{mx.Config.Machine.OrDefault().Cores}
	}
	seeds := mx.seeds()
	benches, benchIdx := mx.benches()
	res := MixResult{
		Mix:      mx,
		Benches:  benches,
		benchIdx: benchIdx,
		SoloBase: make([]sim.Result, len(benches)),
		SoloProt: make([][]sim.Result, len(benches)),
		MixBase:  make([][]multicore.RunResult, len(mx.Tuples)),
		MixProt:  make([][][]multicore.RunResult, len(mx.Tuples)),
	}
	for b := range benches {
		res.SoloProt[b] = make([]sim.Result, seeds)
	}
	for t := range mx.Tuples {
		res.MixBase[t] = make([]multicore.RunResult, len(mx.Cores))
		res.MixProt[t] = make([][]multicore.RunResult, len(mx.Cores))
		for ci := range mx.Cores {
			res.MixProt[t][ci] = make([]multicore.RunResult, seeds)
		}
	}

	// Stage one: the solo results, one cell per (benchmark, variant)
	// stream, through a table whose handles keep their recordings for
	// stage two. A stored result loads nothing, so a warm mix sweep
	// reads no recordings and performs no generation passes.
	variants := 1 + seeds // baseline + protected replicas
	solo := make([]cellRun, len(benches)*variants)
	for u := range solo {
		solo[u] = cellRun{spec: benches[u/variants], rc: mx.variantConfig(u % variants)}
	}
	tab := newTable(pool, true)
	tab.serve(solo,
		func(u int) string {
			return fmt.Sprintf("solo/%s/%s", benches[u/variants].Name, variantName(u%variants))
		},
		func(u int, r sim.Result) {
			if b, v := u/variants, u%variants; v == 0 {
				res.SoloBase[b] = r
			} else {
				res.SoloProt[b][v-1] = r
			}
		})

	// Stage two: replay the recordings across the mix machines.
	// Recordings are read-only here (each machine traverses them with
	// its own cursors), so units share them freely across workers.
	// Each unit result is itself store-cacheable: a mix run is a pure
	// function of the slot streams and the shared machine (unitKey), so
	// a unit whose result is stored asks its handles for nothing.
	cfg := multicore.Config{Machine: mx.Config.Machine}
	st := pool.store
	per := len(mx.Cores) * variants
	pool.Map(len(mx.Tuples)*per, func(u int) {
		t, r := u/per, u%per
		ci, v := r/variants, r%variants
		tuple := mx.Tuples[t]
		if rp := runRecovered(func() {
			faultinject.CheckPanic("cell.panic")
			faultinject.Delay("cell.delay")
			key := ""
			var rr multicore.RunResult
			if st != nil {
				key = mx.unitKey(tuple, mx.Cores[ci], v)
				if st.GetMix(key, &rr) {
					emitMix(&res, t, ci, v, rr)
					return
				}
			}
			rc := mx.variantConfig(v)
			slots := make([]multicore.Stream, mx.Cores[ci])
			for slot := range slots {
				spec := tuple.bench(slot)
				// Stage one made every slot's handle: a read-only lookup.
				rec, _ := tab.streams[sim.StreamOf(spec, rc)].acquire(nil)
				if rec == nil {
					// The capture this unit depends on failed; fail the
					// unit explicitly instead of panicking in replay.
					panic(fmt.Errorf("missing recording for %s (solo capture failed)", spec.Name))
				}
				slots[slot] = multicore.Stream{Name: spec.Name, Rec: rec}
			}
			rr = multicore.Run(cfg, slots)
			if st != nil {
				st.PutMix(key, rr)
			}
			emitMix(&res, t, ci, v, rr)
		}); rp != nil {
			pool.fail(fmt.Sprintf("mix/%s/cores=%d/%s", tuple.Name, mx.Cores[ci], variantName(v)), "mix", rp)
			emitMix(&res, t, ci, v, multicore.RunResult{Cores: make([]sim.Result, mx.Cores[ci])})
		}
	})
	return res
}

// variantName labels a mix variant index: the baseline, or a protected
// seed replica.
func variantName(v int) string {
	if v == 0 {
		return "base"
	}
	return fmt.Sprintf("seed=%d", v-1)
}

// emitMix folds one stage-two unit into its coordinate slot.
func emitMix(res *MixResult, t, ci, v int, rr multicore.RunResult) {
	if v == 0 {
		res.MixBase[t][ci] = rr
	} else {
		res.MixProt[t][ci][v-1] = rr
	}
}

// unitKey is the store key of one stage-two unit: the per-slot op
// stream keys (which pin benchmark, configuration and layouts), the
// shared machine and the interleaver quantum (always
// multicore.DefaultQuantum). The unit's variant — baseline or
// protected replica — is encoded through the slot configurations
// rather than literally, so equal-content units share one entry.
func (mx Mix) unitKey(tuple MixTuple, cores, v int) string {
	rc := mx.variantConfig(v)
	doc := struct {
		Streams []string     `json:"streams"`
		Machine machine.Desc `json:"machine"`
		Quantum int          `json:"quantum"`
	}{Machine: rc.Machine.OrDefault(), Quantum: multicore.DefaultQuantum}
	for slot := 0; slot < cores; slot++ {
		doc.Streams = append(doc.Streams, sim.StreamKey(tuple.bench(slot), rc))
	}
	data, err := json.Marshal(doc)
	if err != nil {
		panic("harness: mix key marshal: " + err.Error())
	}
	return string(data)
}

// SoloSlowdown returns benchmark b's protected-over-baseline slowdown
// running alone, averaged over the seed replicas (the single-core
// engine's number).
func (r MixResult) SoloSlowdown(b int) float64 {
	sum := 0.0
	for _, run := range r.SoloProt[b] {
		sum += stats.Slowdown(r.SoloBase[b].Cycles, run.Cycles)
	}
	return sum / float64(len(r.SoloProt[b]))
}

// CoreSlowdown returns the protected-over-baseline slowdown of core
// slot `slot` in tuple t at core-count index ci, averaged over seeds
// — the same ratio as SoloSlowdown, measured under contention.
func (r MixResult) CoreSlowdown(t, ci, slot int) float64 {
	base := r.MixBase[t][ci].Cores[slot].Cycles
	sum := 0.0
	for _, rr := range r.MixProt[t][ci] {
		sum += stats.Slowdown(base, rr.Cores[slot].Cycles)
	}
	return sum / float64(len(r.MixProt[t][ci]))
}

// MixAvgSlowdown averages CoreSlowdown over the tuple's core slots.
func (r MixResult) MixAvgSlowdown(t, ci int) float64 {
	var col []float64
	for slot := 0; slot < r.Mix.Cores[ci]; slot++ {
		col = append(col, r.CoreSlowdown(t, ci, slot))
	}
	return stats.Mean(col)
}

// SoloAvgSlowdown averages SoloSlowdown over the tuple's core slots.
func (r MixResult) SoloAvgSlowdown(t, ci int) float64 {
	var col []float64
	for slot := 0; slot < r.Mix.Cores[ci]; slot++ {
		col = append(col, r.SoloSlowdown(r.benchIdx[r.Mix.Tuples[t].bench(slot).Name]))
	}
	return stats.Mean(col)
}

// weightedSpeedup sums solo/mix cycle ratios over the core slots: N
// for interference-free sharing, lower as contention bites.
func weightedSpeedup(solo func(slot int) float64, mix []sim.Result) float64 {
	ws := 0.0
	for slot, r := range mix {
		if r.Cycles > 0 {
			ws += solo(slot) / r.Cycles
		}
	}
	return ws
}

// WeightedSpeedupBase returns the baseline mix's weighted speedup
// versus solo baseline runs.
func (r MixResult) WeightedSpeedupBase(t, ci int) float64 {
	return weightedSpeedup(func(slot int) float64 {
		return r.SoloBase[r.benchIdx[r.Mix.Tuples[t].bench(slot).Name]].Cycles
	}, r.MixBase[t][ci].Cores)
}

// WeightedSpeedupProt returns the protected mix's weighted speedup
// versus solo protected runs, averaged over seeds.
func (r MixResult) WeightedSpeedupProt(t, ci int) float64 {
	sum := 0.0
	for s, rr := range r.MixProt[t][ci] {
		sum += weightedSpeedup(func(slot int) float64 {
			return r.SoloProt[r.benchIdx[r.Mix.Tuples[t].bench(slot).Name]][s].Cycles
		}, rr.Cores)
	}
	return sum / float64(len(r.MixProt[t][ci]))
}

// SoloL3Miss and MixL3Miss return the protected runs' shared-L3 miss
// rates (averaged over seeds): the benchmark alone, and core slot
// `slot`'s own share under contention.
func (r MixResult) SoloL3Miss(b int) float64 {
	sum := 0.0
	for _, run := range r.SoloProt[b] {
		sum += run.L3MissRate
	}
	return sum / float64(len(r.SoloProt[b]))
}

func (r MixResult) MixL3Miss(t, ci, slot int) float64 {
	sum := 0.0
	for _, rr := range r.MixProt[t][ci] {
		sum += rr.Cores[slot].L3MissRate
	}
	return sum / float64(len(r.MixProt[t][ci]))
}

// ---- registered experiments ----

func init() {
	Register(Experiment{Name: "mix2", Paper: "DESIGN.md §13", Title: "2-core multiprogrammed mixes: Califorms overhead under shared-L3 contention", Run: mix2Run})
	Register(Experiment{Name: "mix4", Paper: "DESIGN.md §13", Title: "4-core multiprogrammed mixes: Califorms overhead under shared-L3 contention", Run: mix4Run})
	Register(Experiment{Name: "rate4", Paper: "DESIGN.md §13", Title: "homogeneous rate mode at 1/2/4 cores", Run: rate4Run})
	Register(Experiment{Name: "rate8", Paper: "DESIGN.md §13", Title: "homogeneous rate mode at 8 cores", Run: rate8Run})
}

// mixProtConfig is the protected column the mix experiments measure:
// the full insertion policy with random 1-7B spans and CFORM traffic,
// Figure 11's heaviest configuration — the one whose spill/fill and
// sentinel-capacity costs contention should compound.
func mixProtConfig() sim.RunConfig {
	return sim.RunConfig{Policy: sim.PolicyFull, MinPad: 1, MaxPad: 7, UseCForm: true}
}

// mixTuple builds a tuple from registry benchmark names.
func mixTuple(names ...string) MixTuple {
	t := MixTuple{Name: strings.Join(names, "+")}
	for _, n := range names {
		spec, ok := workload.ByName(n)
		if !ok {
			panic("harness: unknown mix benchmark " + n)
		}
		t.Benches = append(t.Benches, spec)
	}
	return t
}

// mixTables renders the two standard mix tables: the per-core
// slowdown/L3 view and the weighted-speedup contention summary.
func mixTables(r MixResult) []Result {
	perCore := Result{
		Kind:    KindTable,
		Title:   "Per-core slowdown and shared-L3 miss rate, solo vs in-mix (full 1-7B CFORM vs baseline)",
		Headers: []string{"mix", "cores", "core", "benchmark", "solo slowdown", "mix slowdown", "solo L3 miss", "mix L3 miss"},
	}
	summary := Result{
		Kind:    KindTable,
		Title:   "Contention summary: weighted speedup (N = no interference) and average overhead inflation",
		Headers: []string{"mix", "cores", "WS baseline", "WS califorms", "solo avg slowdown", "mix avg slowdown", "inflation"},
	}
	for t, tuple := range r.Mix.Tuples {
		for ci, n := range r.Mix.Cores {
			for slot := 0; slot < n; slot++ {
				b := r.benchIdx[tuple.bench(slot).Name]
				perCore.Rows = append(perCore.Rows, []string{
					tuple.Name, fmt.Sprintf("%d", n), fmt.Sprintf("%d", slot), tuple.bench(slot).Name,
					stats.Pct(r.SoloSlowdown(b)), stats.Pct(r.CoreSlowdown(t, ci, slot)),
					stats.Pct(r.SoloL3Miss(b)), stats.Pct(r.MixL3Miss(t, ci, slot)),
				})
			}
			solo, mix := r.SoloAvgSlowdown(t, ci), r.MixAvgSlowdown(t, ci)
			summary.Rows = append(summary.Rows, []string{
				tuple.Name, fmt.Sprintf("%d", n),
				fmt.Sprintf("%.3f", r.WeightedSpeedupBase(t, ci)),
				fmt.Sprintf("%.3f", r.WeightedSpeedupProt(t, ci)),
				stats.Pct(solo), stats.Pct(mix),
				fmt.Sprintf("%+.1fpp", (mix-solo)*100),
			})
		}
	}
	return []Result{perCore, summary}
}

func mixNRun(p Params, pool *Pool, cores int, tuples []MixTuple) []Result {
	cfg := mixProtConfig()
	cfg.Machine = p.Machine
	mx := Mix{
		Tuples: tuples,
		Config: cfg,
		Cores:  []int{cores},
		Seeds:  p.Seeds,
		Visits: p.Visits,
	}
	return stampMachine(mixTables(mx.Run(pool)), p)
}

// stampMachine labels single-machine records with the sweep's
// non-default machine (see Result.Machine).
func stampMachine(rs []Result, p Params) []Result {
	for i := range rs {
		rs[i].Machine = p.MachineLabel()
	}
	return rs
}

// mix2Run pairs an LLC-pressuring benchmark with a lighter co-runner:
// the pairs where shared-capacity contention should move the needle
// most against a cache-resident victim.
func mix2Run(p Params, pool *Pool) []Result {
	return mixNRun(p, pool, 2, []MixTuple{
		mixTuple("mcf", "perlbench"),
		mixTuple("xalancbmk", "libquantum"),
		mixTuple("omnetpp", "sjeng"),
		mixTuple("soplex", "povray"),
	})
}

func mix4Run(p Params, pool *Pool) []Result {
	return mixNRun(p, pool, 4, []MixTuple{
		mixTuple("mcf", "xalancbmk", "hmmer", "sjeng"),
		mixTuple("omnetpp", "soplex", "povray", "namd"),
		mixTuple("astar", "libquantum", "gobmk", "perlbench"),
	})
}

// rateRun is the homogeneous rate mode: N copies of one benchmark per
// machine, swept over the given core counts.
func rateRun(p Params, pool *Pool, coreCounts []int, names []string) []Result {
	tuples := make([]MixTuple, len(names))
	for i, n := range names {
		tuples[i] = mixTuple(n)
	}
	cfg := mixProtConfig()
	cfg.Machine = p.Machine
	mx := Mix{
		Tuples: tuples,
		Config: cfg,
		Cores:  coreCounts,
		Seeds:  p.Seeds,
		Visits: p.Visits,
	}
	r := mx.Run(pool)

	headers := []string{"benchmark"}
	for _, n := range coreCounts {
		headers = append(headers, fmt.Sprintf("slowdown x%d", n))
	}
	for _, n := range coreCounts {
		headers = append(headers, fmt.Sprintf("L3 miss x%d", n))
	}
	t := Result{
		Kind:    KindTable,
		Title:   "Rate mode: Califorms slowdown and shared-L3 miss rate running N homogeneous copies (full 1-7B CFORM)",
		Headers: headers,
	}
	avg := make([]float64, 2*len(coreCounts))
	for ti, tuple := range tuples {
		row := []string{tuple.Name}
		for ci := range coreCounts {
			s := r.MixAvgSlowdown(ti, ci)
			avg[ci] += s
			row = append(row, stats.Pct(s))
		}
		for ci, n := range coreCounts {
			m := 0.0
			for slot := 0; slot < n; slot++ {
				m += r.MixL3Miss(ti, ci, slot)
			}
			m /= float64(n)
			avg[len(coreCounts)+ci] += m
			row = append(row, stats.Pct(m))
		}
		t.Rows = append(t.Rows, row)
	}
	avgRow := []string{"AVG"}
	for _, v := range avg {
		avgRow = append(avgRow, stats.Pct(v/float64(len(tuples))))
	}
	t.Rows = append(t.Rows, avgRow)
	return stampMachine([]Result{t}, p)
}

func rate4Run(p Params, pool *Pool) []Result {
	return rateRun(p, pool, []int{1, 2, 4},
		[]string{"perlbench", "povray", "gobmk", "sjeng", "astar"})
}

func rate8Run(p Params, pool *Pool) []Result {
	return rateRun(p, pool, []int{8},
		[]string{"hmmer", "sjeng", "povray", "namd"})
}
