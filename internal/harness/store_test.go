package harness

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// withStore installs a fresh on-disk store on pool for the rest of
// the test.
func withStore(t *testing.T, pool *Pool) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	pool.SetStore(s)
	return s
}

// TestWarmSweepByteIdenticalAndZeroGenPasses is the store's referee:
// the full registry, run cold into an empty store and then warm out of
// it, must emit byte-identical reports in every format — and the warm
// pass must perform zero generation passes. A storeless run must match
// both (the store changes cost, never content).
func TestWarmSweepByteIdenticalAndZeroGenPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry three times")
	}
	p := Params{Visits: 200, Seeds: 2}
	pool := NewPool(2)

	plain := emitAll(t, p, pool)

	s := withStore(t, pool)
	before, poolBefore := sim.GenerationPasses(), pool.GenPasses()
	cold := emitAll(t, p, pool)
	if !bytes.Equal(plain, cold) {
		t.Fatal("store-enabled cold sweep diverges from storeless output")
	}
	// The pool counts every generation pass its sweeps run: matrix
	// captures, mix captures and direct (ablation) runs alike.
	if n, want := pool.GenPasses()-poolBefore, sim.GenerationPasses()-before; n != want {
		t.Errorf("cold sweep: pool counted %d generation passes, the process %d", n, want)
	}
	before = sim.GenerationPasses()
	warm := emitAll(t, p, pool)
	if n := sim.GenerationPasses() - before; n != 0 {
		t.Errorf("warm sweep performed %d generation passes, want 0", n)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm sweep output diverges from cold")
	}
	if c := s.Counters(); c.Hits == 0 {
		t.Errorf("warm sweep recorded no store hits: %+v", c)
	}
}

// TestIncrementalMachineSweepIsReplayOnly: widening a cold sweep's
// machine axis must not pay any generation pass — the new machine
// columns replay the stored streams.
func TestIncrementalMachineSweepIsReplayOnly(t *testing.T) {
	slow := machine.Default()
	slow.Hier.ExtraL2L3 = 1
	m := Matrix{
		Benches: workload.Fig10Set()[:2],
		Configs: []sim.RunConfig{{Policy: sim.PolicyFull, MinPad: 1, MaxPad: 7, UseCForm: true}},
		Visits:  200,
	}
	pool := NewPool(2)

	// Independent reference for the widened sweep, storeless.
	wide := m
	wide.Machines = []machine.Desc{machine.Default(), slow}
	want := wide.Run(pool)

	withStore(t, pool)
	m.Run(pool) // cold: captures every stream on the default machine

	before := sim.GenerationPasses()
	got := wide.Run(pool)
	if n := sim.GenerationPasses() - before; n != 0 {
		t.Errorf("incremental machine sweep performed %d generation passes, want 0", n)
	}
	if !reflect.DeepEqual(got.Base, want.Base) || !reflect.DeepEqual(got.Runs, want.Runs) {
		t.Fatal("incremental machine sweep diverges from independent runs")
	}
}

// TestIncrementalConfigSweepCapturesOnlyDelta: adding one policy
// column to a warmed sweep pays exactly one generation pass per new
// stream (bench × new column), nothing for the cells already stored.
func TestIncrementalConfigSweepCapturesOnlyDelta(t *testing.T) {
	m := Matrix{
		Benches: workload.Fig10Set()[:2],
		Configs: []sim.RunConfig{{Policy: sim.PolicyFull, FixedPad: 1}},
		Visits:  200,
	}
	pool := NewPool(2)
	withStore(t, pool)
	m.Run(pool)

	wider := m
	wider.Configs = append(wider.Configs, sim.RunConfig{Policy: sim.PolicyFull, FixedPad: 2})
	before := sim.GenerationPasses()
	wider.Run(pool)
	want := uint64(len(m.Benches)) // one new stream per benchmark
	if n := sim.GenerationPasses() - before; n != want {
		t.Errorf("incremental config sweep performed %d generation passes, want %d", n, want)
	}
}

// TestMixWarmRunIsPureLookup: a repeated mix sweep must serve both
// stages from the store — zero generation passes, identical tables.
func TestMixWarmRunIsPureLookup(t *testing.T) {
	mx := Mix{
		Tuples: []MixTuple{mixTuple("mcf", "perlbench")},
		Config: mixProtConfig(),
		Cores:  []int{2},
		Seeds:  2,
		Visits: 200,
	}
	pool := NewPool(2)
	withStore(t, pool)
	cold := mixTables(mx.Run(pool))

	before := sim.GenerationPasses()
	warm := mixTables(mx.Run(pool))
	if n := sim.GenerationPasses() - before; n != 0 {
		t.Errorf("warm mix sweep performed %d generation passes, want 0", n)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm mix tables diverge from cold")
	}
}
