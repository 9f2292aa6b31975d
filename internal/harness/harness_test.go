package harness

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// simExtraL2L3 is the Figure 10 machine: +1 cycle on every L2/L3
// access.
func simExtraL2L3() machine.Desc {
	d := machine.Default()
	d.Hier.ExtraL2L3 = 1
	return d
}

func TestRegistryCanonicalOrder(t *testing.T) {
	want := []string{"fig3", "fig4", "table1", "table2", "table3", "fig10", "fig11",
		"fig12", "table4", "table5", "table6", "table7", "security", "ablations",
		"mix2", "mix4", "rate4", "rate8", "sens-machine", "sens-llc"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("registry holds %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Name != want[i] {
			t.Fatalf("registry[%d] = %q, want %q", i, e.Name, want[i])
		}
		if e.Run == nil || e.Paper == "" || e.Title == "" {
			t.Fatalf("experiment %q is missing Run/Paper/Title", e.Name)
		}
	}
	for _, name := range want {
		if _, ok := Get(name); !ok {
			t.Fatalf("Get(%q) failed", name)
		}
	}
	if _, ok := Get("nonsense"); ok {
		t.Fatal("Get accepted an unknown name")
	}
}

func testMatrix(benches, configs, seeds, visits int) Matrix {
	specs := workload.Fig11Set()[:benches]
	cfgs := make([]sim.RunConfig, configs)
	for i := range cfgs {
		cfgs[i] = sim.RunConfig{Policy: sim.PolicyFull, MinPad: 1, MaxPad: 3 + 2*i, UseCForm: true}
	}
	return Matrix{Benches: specs, Configs: cfgs, Seeds: seeds, Visits: visits}
}

func TestMatrixExpansion(t *testing.T) {
	m := testMatrix(3, 2, 2, 100)
	cells := m.Cells()
	// One baseline per benchmark plus configs × seeds.
	if want := 3 * (1 + 2*2); len(cells) != want {
		t.Fatalf("expanded %d cells, want %d", len(cells), want)
	}
	seen := map[Cell]bool{}
	for _, c := range cells {
		if seen[c] {
			t.Fatalf("duplicate cell %+v", c)
		}
		seen[c] = true
	}
	// Canonical order: per benchmark, baseline first.
	if cells[0] != (Cell{Bench: 0, Config: -1}) {
		t.Fatalf("first cell %+v is not bench 0's baseline", cells[0])
	}
	if cells[5] != (Cell{Bench: 1, Config: -1}) {
		t.Fatalf("cell 5 = %+v, want bench 1's baseline", cells[5])
	}

	// Materialized configs: visits applied everywhere, layout seed
	// strided per replica, baseline uninstrumented.
	if rc := m.Config(Cell{Bench: 0, Config: -1}); rc.Policy != sim.PolicyNone || rc.Visits != 100 {
		t.Fatalf("baseline config = %+v", rc)
	}
	if rc := m.Config(Cell{Bench: 0, Config: 1, Seed: 0}); rc.LayoutSeed != 0 || rc.MaxPad != 5 || rc.Visits != 100 {
		t.Fatalf("seed-0 config = %+v", rc)
	}
	if rc := m.Config(Cell{Bench: 0, Config: 1, Seed: 2}); rc.LayoutSeed != 2*layoutSeedStride {
		t.Fatalf("seed-2 layout seed = %d, want %d", rc.LayoutSeed, 2*layoutSeedStride)
	}
}

func TestMatrixSeedsDefaultToOne(t *testing.T) {
	m := testMatrix(1, 1, 0, 50)
	if got := len(m.Cells()); got != 2 {
		t.Fatalf("zero-seed matrix expanded to %d cells, want 2", got)
	}
}

func TestMatrixDeterministicAcrossWorkerCounts(t *testing.T) {
	m := testMatrix(3, 2, 2, 800)
	var results []MatrixResult
	for _, workers := range []int{1, 3, 16} {
		results = append(results, m.Run(NewPool(workers)))
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0].Base, results[i].Base) ||
			!reflect.DeepEqual(results[0].Runs, results[i].Runs) {
			t.Fatalf("matrix results differ between 1 worker and %d workers", []int{1, 3, 16}[i])
		}
	}
}

// TestExperimentBytesIdenticalAcrossWorkerCounts is the acceptance
// check for the -workers flag: a registered experiment must emit
// byte-identical text at any pool width.
func TestExperimentBytesIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	// fig10 is the cheapest registered sweep (two runs per benchmark);
	// the seed-replica dimension is covered at the matrix level by
	// TestMatrixDeterministicAcrossWorkerCounts.
	p := Params{Visits: 400, Seeds: 1}
	emit := func(workers int) []byte {
		rs, err := RunByName("fig10", p, NewPool(workers))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := (TextEmitter{}).Emit(&buf, rs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one := emit(1)
	for _, workers := range []int{4, 32} {
		if !bytes.Equal(one, emit(workers)) {
			t.Fatalf("fig10 output differs between 1 and %d workers", workers)
		}
	}
}

// The three tests below moved here from internal/sim when the sweep
// drivers became harness matrices: they assert the paper's headline
// shapes on the real workload set.

func TestFig4Monotone(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	slowdowns := fig4Slowdowns(t, 8000)
	if slowdowns[0] < 0.005 {
		t.Fatalf("1B padding slowdown %.4f, expected noticeable (paper: 3%%)", slowdowns[0])
	}
	if slowdowns[6] <= slowdowns[0] {
		t.Fatalf("7B (%f) must exceed 1B (%f)", slowdowns[6], slowdowns[0])
	}
	if slowdowns[6] > 0.2 {
		t.Fatalf("7B slowdown %.2f%% implausibly high (paper: 7.6%%)", slowdowns[6]*100)
	}
}

func fig4Slowdowns(t *testing.T, visits int) []float64 {
	t.Helper()
	pads := []int{1, 2, 3, 4, 5, 6, 7}
	cfgs := make([]sim.RunConfig, len(pads))
	for i, pad := range pads {
		cfgs[i] = sim.RunConfig{Policy: sim.PolicyFull, FixedPad: pad}
	}
	m := Matrix{Benches: workload.Fig10Set(), Configs: cfgs, Visits: visits}
	r := m.Run(NewPool(0))
	out := make([]float64, len(pads))
	for i := range pads {
		out[i] = r.AvgSlowdown(i)
	}
	return out
}

func TestFig10Band(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	slow := simExtraL2L3()
	m := Matrix{
		Benches: workload.Fig10Set(),
		Configs: []sim.RunConfig{{Policy: sim.PolicyNone, Machine: slow}},
		Visits:  8000,
	}
	r := m.Run(NewPool(0))
	var all []float64
	for b, spec := range m.Benches {
		sd := r.Slowdown(b, 0)
		if sd < -0.002 || sd > 0.03 {
			t.Fatalf("%s: slowdown %.3f%% outside plausible band", spec.Name, sd*100)
		}
		all = append(all, sd)
	}
	if avg := stats.Mean(all); avg < 0.002 || avg > 0.02 {
		t.Fatalf("average %.3f%%, paper reports 0.83%%", avg*100)
	}
}

func TestPolicyMatrixShape(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix in -short mode")
	}
	r := PolicyMatrix(Fig12Configs(), Params{Visits: 6000, Seeds: 1}, NewPool(0))
	// Intelligent with CFORM must stay cheap on average (paper: 1.5%)
	// and be costlier than without CFORM.
	if r.AvgSlowdown(5) <= r.AvgSlowdown(2) {
		t.Fatalf("CFORM must add cost: %.3f vs %.3f", r.AvgSlowdown(5), r.AvgSlowdown(2))
	}
	if r.AvgSlowdown(5) > 0.08 {
		t.Fatalf("intelligent 1-7B CFORM avg %.2f%%, paper ~1.5%%", r.AvgSlowdown(5)*100)
	}
}

func mustGet(t *testing.T, name string) Experiment {
	t.Helper()
	e, ok := Get(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	return e
}

// TestRegistryExperimentShapes smoke-runs the sweep experiments at a
// tiny region size and checks their record shapes; the static tables
// run at full fidelity (they cost nothing).
func TestRegistryExperimentShapes(t *testing.T) {
	pool := NewPool(0)
	p := Params{Visits: 200, Seeds: 1}
	wantRecords := map[string]int{
		"fig3": 2, "fig4": 1, "table1": 1, "table2": 2, "table3": 1,
		"fig10": 1, "fig11": 1, "fig12": 1, "table4": 1, "table5": 1,
		"table6": 1, "table7": 1, "security": 3, "ablations": 5,
		"mix2": 2, "mix4": 2, "rate4": 1, "rate8": 1,
		"sens-machine": 2, "sens-llc": 1,
	}
	for _, e := range Experiments() {
		rs := Run(e, p, pool)
		if len(rs) != wantRecords[e.Name] {
			t.Fatalf("%s produced %d records, want %d", e.Name, len(rs), wantRecords[e.Name])
		}
		for i, r := range rs {
			if r.Experiment != e.Name {
				t.Fatalf("%s record %d stamped %q", e.Name, i, r.Experiment)
			}
			switch r.Kind {
			case KindTable:
				if len(r.Headers) == 0 || len(r.Rows) == 0 {
					t.Fatalf("%s record %d: empty table", e.Name, i)
				}
				for _, row := range r.Rows {
					if len(row) != len(r.Headers) {
						t.Fatalf("%s record %d: row width %d vs %d headers", e.Name, i, len(row), len(r.Headers))
					}
				}
			case KindHistogram:
				if r.Text == "" || len(r.Rows) == 0 {
					t.Fatalf("%s record %d: histogram missing text or bins", e.Name, i)
				}
			case KindText:
				if r.Text == "" {
					t.Fatalf("%s record %d: empty text", e.Name, i)
				}
			default:
				t.Fatalf("%s record %d: unknown kind %q", e.Name, i, r.Kind)
			}
		}
	}
}
