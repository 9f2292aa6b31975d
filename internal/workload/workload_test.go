package workload

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/mem"
)

func TestSetsAndNames(t *testing.T) {
	if got := len(Fig10Set()); got != 19 {
		t.Fatalf("Fig10 set has %d benchmarks, want 19", got)
	}
	if got := len(Fig11Set()); got != 16 {
		t.Fatalf("Fig11 set has %d benchmarks, want 16", got)
	}
	for _, skip := range []string{"dealII", "gcc", "omnetpp"} {
		for _, s := range Fig11Set() {
			if s.Name == skip {
				t.Fatalf("%s must be excluded from the Fig11 set", skip)
			}
		}
	}
	if _, ok := ByName("mcf"); !ok {
		t.Fatal("mcf must exist")
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Fatal("unknown name must not resolve")
	}
}

func TestSpecsDistinctSeedsAndTypes(t *testing.T) {
	seen := map[int64]string{}
	for _, s := range Fig10Set() {
		if prev, dup := seen[s.Seed]; dup {
			t.Fatalf("seed %d shared by %s and %s", s.Seed, prev, s.Name)
		}
		seen[s.Seed] = s.Name
		defs := s.Types()
		if len(defs) != s.TypeCount {
			t.Fatalf("%s: %d types, want %d", s.Name, len(defs), s.TypeCount)
		}
	}
}

func TestRunProducesWork(t *testing.T) {
	spec, _ := ByName("astar")
	hier := cache.New(cache.Westmere(), mem.New())
	c := cpu.New(cpu.DefaultConfig(), hier)
	heap := alloc.New(alloc.DefaultConfig(), c)
	defs := spec.Types()
	ins := make([]*compiler.Instrumented, len(defs))
	for i := range defs {
		ins[i] = compiler.InstrumentNone(defs[i])
	}
	env := &Env{Core: c, Heap: heap, Ins: ins}
	spec.RunScripted(env, spec.CaptureScript(3000))
	if c.Stats.Loads == 0 || c.Stats.Stores == 0 || c.Stats.Instructions == 0 {
		t.Fatalf("no work recorded: %+v", c.Stats)
	}
	if c.Cycles() == 0 {
		t.Fatal("no cycles accumulated")
	}
	if heap.Stats.Allocs == 0 {
		t.Fatal("heap never used")
	}
}

func TestChaseHeavyIsSlowerPerVisit(t *testing.T) {
	// mcf (pointer chase) must achieve lower IPC than hmmer
	// (cache-resident compute) — the axis that makes Figure 10's
	// per-benchmark spread meaningful.
	ipc := func(name string) float64 {
		spec, _ := ByName(name)
		hier := cache.New(cache.Westmere(), mem.New())
		c := cpu.New(cpu.DefaultConfig(), hier)
		heap := alloc.New(alloc.DefaultConfig(), c)
		defs := spec.Types()
		ins := make([]*compiler.Instrumented, len(defs))
		for i := range defs {
			ins[i] = compiler.InstrumentNone(defs[i])
		}
		env := &Env{Core: c, Heap: heap, Ins: ins}
		spec.RunScripted(env, spec.CaptureScript(8000))
		return float64(c.Stats.Instructions) / c.Cycles()
	}
	mcf, hmmer := ipc("mcf"), ipc("hmmer")
	if mcf >= hmmer {
		t.Fatalf("mcf IPC (%.2f) must be below hmmer IPC (%.2f)", mcf, hmmer)
	}
}
