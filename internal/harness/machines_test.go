package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// twoMachineMatrix is the referee shape for the machine axis: two
// registry machines crossed with a policy column and a fixed-pad
// column, two seeds.
func twoMachineMatrix(visits int) Matrix {
	westmere, _ := machine.Get("westmere")
	embedded, _ := machine.Get("embedded")
	return Matrix{
		Benches: workload.Fig10Set()[:2],
		Configs: []sim.RunConfig{
			{Policy: sim.PolicyFull, FixedPad: 2},
			{Policy: sim.PolicyFull, MinPad: 1, MaxPad: 5, UseCForm: true},
		},
		Machines: []machine.Desc{westmere, embedded},
		Seeds:    2,
		Visits:   visits,
	}
}

// TestMachineAxisExpansion pins the machine axis's cell geometry and
// config materialization.
func TestMachineAxisExpansion(t *testing.T) {
	m := twoMachineMatrix(100)
	cells := m.Cells()
	// Per benchmark: one baseline per machine, then configs × seeds ×
	// machines.
	if want := 2 * (2 + 2*2*2); len(cells) != want {
		t.Fatalf("expanded %d cells, want %d", len(cells), want)
	}
	if cells[0] != (Cell{Bench: 0, Config: -1, Machine: 0}) || cells[1] != (Cell{Bench: 0, Config: -1, Machine: 1}) {
		t.Fatalf("cells 0/1 = %+v, %+v; want bench 0's baselines on both machines", cells[0], cells[1])
	}
	if rc := m.Config(Cell{Bench: 0, Config: 0, Machine: 1}); rc.Machine.Name != "embedded" {
		t.Fatalf("machine column 1 materialized %q", rc.Machine.Name)
	}
	if rc := m.Config(Cell{Bench: 0, Config: -1, Machine: 0}); rc.Machine.Name != "westmere" || rc.Policy != sim.PolicyNone {
		t.Fatalf("baseline on machine 0 = %+v", rc)
	}
}

// TestMachineStaysOutOfTraceKey proves cross-machine stream sharing at
// the identity level: cells that differ only in their machine column —
// any machine column, any config — share a stream identity
// (sim.StreamOf), so a machine axis can never add generation work.
func TestMachineStaysOutOfTraceKey(t *testing.T) {
	m := twoMachineMatrix(100)
	idOf := func(cell Cell) sim.StreamID { return sim.StreamOf(m.Benches[cell.Bench], m.Config(cell)) }
	for c := -1; c < len(m.Configs); c++ {
		a := Cell{Bench: 0, Config: c, Machine: 0}
		b := Cell{Bench: 0, Config: c, Machine: 1}
		if idOf(a) != idOf(b) {
			t.Fatalf("config %d: machine column entered the stream identity", c)
		}
	}
	// The machine axis shares streams; everything layout-relevant
	// still splits them.
	if idOf(Cell{Bench: 0, Config: 0, Machine: 0}) == idOf(Cell{Bench: 0, Config: 1, Machine: 0}) {
		t.Fatal("different configs must not share a stream identity")
	}
}

// TestMachinesAxisSharesCapture is the acceptance referee of the
// machine axis: a matrix swept over M machines performs exactly one
// workload generation pass per distinct stream identity — the machine
// axis multiplies replay consumers, never kernel/allocator work.
func TestMachinesAxisSharesCapture(t *testing.T) {
	m := twoMachineMatrix(150)
	cells := m.Cells()
	ids := make(map[sim.StreamID]bool)
	for _, cell := range cells {
		ids[sim.StreamOf(m.Benches[cell.Bench], m.Config(cell))] = true
	}
	if len(ids)*2 != len(cells) {
		t.Fatalf("expected every stream to span both machines: %d streams, %d cells", len(ids), len(cells))
	}
	for _, workers := range []int{1, 4} {
		pool := NewPool(workers)
		before := sim.GenerationPasses()
		m.Run(pool)
		passes := sim.GenerationPasses() - before
		if passes != uint64(len(ids)) {
			t.Fatalf("workers=%d: %d generation passes for %d distinct op streams (%d cells)",
				workers, passes, len(ids), len(cells))
		}
		if n := pool.GenPasses(); n != passes {
			t.Fatalf("workers=%d: pool counted %d generation passes, the process %d", workers, n, passes)
		}
	}
}

// TestMachinesAxisMatchesIndependentRuns: a machine-axis sweep through
// the capture/fan-out engine is byte-identical to one independent
// sim.Run per cell, at multiple worker counts and in every emitter
// format.
func TestMachinesAxisMatchesIndependentRuns(t *testing.T) {
	m := twoMachineMatrix(200)

	render := func(r MatrixResult) []Result {
		t := Result{Experiment: "machines", Kind: KindTable, Title: "2-machine referee",
			Headers: []string{"machine", "benchmark", "fixed 2B", "1-5B CFORM"}}
		for mi, d := range m.Machines {
			for b, spec := range m.Benches {
				t.Rows = append(t.Rows, []string{d.Name, spec.Name,
					stats.Pct(r.SlowdownAt(b, 0, mi)), stats.Pct(r.SlowdownAt(b, 1, mi))})
			}
		}
		return []Result{t}
	}
	emitAllFormats := func(rs []Result) []byte {
		var buf bytes.Buffer
		for _, format := range []string{"text", "json", "csv"} {
			em, err := NewEmitter(format)
			if err != nil {
				t.Fatal(err)
			}
			if err := em.Emit(&buf, rs); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}

	direct := newMatrixResult(m)
	for _, cell := range m.Cells() {
		direct.emit(cell, sim.Run(m.Benches[cell.Bench], m.Config(cell)))
	}
	directBytes := emitAllFormats(render(direct))

	for _, workers := range []int{1, 3} {
		engine := m.Run(NewPool(workers))
		if !reflect.DeepEqual(direct, engine) {
			t.Fatalf("workers=%d: machine-axis engine results diverge from independent per-cell runs", workers)
		}
		if got := emitAllFormats(render(engine)); !bytes.Equal(directBytes, got) {
			t.Fatalf("workers=%d: machine-axis emitter bytes diverge from independent per-cell runs", workers)
		}
	}
}

// TestSensExperimentsMachineColumns: the registered sensitivity sweeps
// carry the machine axis in their tables — every registry machine
// appears in sens-machine's rows, every swept LLC size in sens-llc's
// headers.
func TestSensExperimentsMachineColumns(t *testing.T) {
	pool := NewPool(0)
	p := Params{Visits: 120}

	rs, err := RunByName("sens-machine", p, pool)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, row := range rs[0].Rows {
		seen[row[0]] = true
	}
	for _, d := range machine.Machines() {
		if !seen[d.Name] {
			t.Fatalf("sens-machine table is missing machine %q", d.Name)
		}
	}

	rs, err = RunByName("sens-llc", p, pool)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(sensLLCSizes) + 1; len(rs[0].Headers) != want {
		t.Fatalf("sens-llc table has %d columns, want %d", len(rs[0].Headers), want)
	}
	for i, size := range sensLLCSizes {
		if got, want := rs[0].Headers[i+1], machine.SizeString(size); got != want {
			t.Fatalf("sens-llc header %d = %q, want %q", i+1, got, want)
		}
	}
}

// TestParamsMachineThreading: a non-default Params.Machine reaches the
// matrix experiments (different machine, different numbers) and stamps
// the records' machine column; the default leaves records unstamped.
func TestParamsMachineThreading(t *testing.T) {
	pool := NewPool(0)
	skylake, _ := machine.Get("skylake")
	def, err := RunByName("fig10", Params{Visits: 150}, pool)
	if err != nil {
		t.Fatal(err)
	}
	sky, err := RunByName("fig10", Params{Visits: 150, Machine: skylake}, pool)
	if err != nil {
		t.Fatal(err)
	}
	if def[0].Machine != "" {
		t.Fatalf("default machine stamped %q, want empty", def[0].Machine)
	}
	if sky[0].Machine != "skylake" {
		t.Fatalf("skylake sweep stamped %q", sky[0].Machine)
	}
	if reflect.DeepEqual(def[0].Rows, sky[0].Rows) {
		t.Fatal("fig10 produced identical rows on westmere and skylake")
	}

	// The CSV emitter renders the machine column only for stamped
	// records, keeping default output schema-stable.
	var buf bytes.Buffer
	if err := (CSVEmitter{}).Emit(&buf, sky); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("experiment,title,machine,benchmark")) {
		t.Fatalf("stamped CSV lacks the machine column:\n%s", buf.String())
	}
	buf.Reset()
	if err := (CSVEmitter{}).Emit(&buf, def); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(",machine,")) {
		t.Fatalf("default CSV grew a machine column:\n%s", buf.String())
	}
}

// TestMatrixMachineBase: Matrix.Machine rebases the whole matrix —
// baseline and columns — while a config's own machine variant still
// wins over the base (the fig10 shape on a non-default machine).
func TestMatrixMachineBase(t *testing.T) {
	embedded, _ := machine.Get("embedded")
	slow := embedded
	slow.Hier.ExtraL2L3 = 1
	m := Matrix{
		Benches: workload.Fig10Set()[:1],
		Configs: []sim.RunConfig{{Policy: sim.PolicyNone, Machine: slow}},
		Machine: embedded,
		Visits:  100,
	}
	if rc := m.Config(Cell{Bench: 0, Config: -1}); rc.Machine != embedded {
		t.Fatalf("baseline machine = %q, want embedded", rc.Machine.Name)
	}
	if rc := m.Config(Cell{Bench: 0, Config: 0}); rc.Machine.Hier.ExtraL2L3 != 1 {
		t.Fatal("config's own machine variant was overridden by the base")
	}
	// And the variant still shares the baseline's op stream.
	spec := m.Benches[0]
	if sim.StreamOf(spec, m.Config(Cell{Bench: 0, Config: -1})) != sim.StreamOf(spec, m.Config(Cell{Bench: 0, Config: 0})) {
		t.Fatal("machine-only variant must share the baseline's stream identity")
	}
	r := m.Run(NewPool(2))
	if r.Base[0][0].Cycles >= r.Runs[0][0][0][0].Cycles {
		want := fmt.Sprintf("base %.0f < +1-cycle %.0f", r.Base[0][0].Cycles, r.Runs[0][0][0][0].Cycles)
		t.Fatalf("extra latency did not slow the embedded machine down: want %s", want)
	}
}

// TestMixDefaultsToMachineCores: a Mix with no explicit width axis
// runs at the machine's own nominal core count (machine.Desc.Cores).
func TestMixDefaultsToMachineCores(t *testing.T) {
	embedded, _ := machine.Get("embedded")
	cfg := mixProtConfig()
	cfg.Machine = embedded
	mx := Mix{Tuples: []MixTuple{mixTuple("gobmk")}, Config: cfg, Visits: 100}
	r := mx.Run(NewPool(2))
	if got := r.Mix.Cores; len(got) != 1 || got[0] != embedded.Cores {
		t.Fatalf("default mix widths = %v, want [%d]", got, embedded.Cores)
	}
	if got := len(r.MixProt[0][0][0].Cores); got != embedded.Cores {
		t.Fatalf("machine width %d, want the embedded nominal %d", got, embedded.Cores)
	}
}
