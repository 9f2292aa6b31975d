package workload

import (
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/layout"
	"repro/internal/mem"
	"repro/internal/trace"
)

// machineState is everything a run leaves behind that the emitters can
// observe, collected for exact comparison.
type machineState struct {
	core   cpu.Stats
	cyc    float64
	l1     cache.LevelStats
	l2     cache.LevelStats
	l3     cache.LevelStats
	hier   cache.HierStats
	allocs uint64
	foot   uint64
}

func buildEnv(spec Spec, policy int, pad int, seed int64) *Env {
	hier := cache.New(cache.Westmere(), mem.New())
	c := cpu.New(cpu.DefaultConfig(), hier)
	cfg := alloc.DefaultConfig()
	cfg.Protocol = alloc.ProtocolDirty
	cfg.UseCForm = policy > 0
	heap := alloc.New(cfg, c)
	defs := spec.Types()
	ins := make([]*compiler.Instrumented, len(defs))
	lr := rand.New(rand.NewSource(seed ^ spec.Seed))
	for i := range defs {
		if policy == 0 {
			ins[i] = compiler.InstrumentNone(defs[i])
			continue
		}
		pc := layout.PolicyConfig{MinPad: 1, MaxPad: pad, Rand: lr}
		ins[i] = compiler.Instrument(defs[i], layout.Full, pc)
	}
	return &Env{Core: c, Heap: heap, Ins: ins}
}

func collect(env *Env) machineState {
	h := env.Core.Hierarchy()
	return machineState{
		core:   env.Core.Stats,
		cyc:    env.Core.Cycles(),
		l1:     h.L1Stats(),
		l2:     h.L2Stats(),
		l3:     h.L3Stats(),
		hier:   h.Stats,
		allocs: env.Heap.Stats.Allocs,
		foot:   env.Heap.Footprint(),
	}
}

// TestScriptedMatchesDirect is the kernel-level referee: for every
// benchmark of the registry at its full population, under the baseline
// and the full 1-7B + CFORM configuration, RunScripted from a captured
// script must leave the machine in exactly the state the RNG kernel
// does.
func TestScriptedMatchesDirect(t *testing.T) {
	const visits = 500
	for _, spec := range Fig10Set() {
		sc := spec.CaptureScript(visits)
		for _, cfg := range []struct {
			policy int
			pad    int
		}{{0, 0}, {1, 7}} {
			direct := buildEnv(spec, cfg.policy, cfg.pad, 42)
			spec.runRNG(direct, visits)
			ds := collect(direct)

			scripted := buildEnv(spec, cfg.policy, cfg.pad, 42)
			spec.RunScripted(scripted, sc)
			ss := collect(scripted)

			if ds != ss {
				t.Errorf("%s policy=%d pad=%d: scripted state diverges\ndirect:   %+v\nscripted: %+v",
					spec.Name, cfg.policy, cfg.pad, ds, ss)
			}
		}
	}
}

// TestScriptSharedAcrossConfigs verifies the load-bearing property of
// the capture/replay engine: one script captured per benchmark drives
// every configuration, and each scripted run matches its own direct
// run — including the uninstrumented baseline.
func TestScriptSharedAcrossConfigs(t *testing.T) {
	const visits = 800
	spec, _ := ByName("gobmk")
	sc := spec.CaptureScript(visits)
	for _, cfg := range []struct {
		policy int
		pad    int
	}{{0, 0}, {1, 3}, {1, 5}, {1, 7}} {
		direct := buildEnv(spec, cfg.policy, cfg.pad, 7)
		spec.runRNG(direct, visits)
		scripted := buildEnv(spec, cfg.policy, cfg.pad, 7)
		spec.RunScripted(scripted, sc)
		if d, s := collect(direct), collect(scripted); d != s {
			t.Errorf("policy=%d pad=%d: shared-script run diverges\ndirect:   %+v\nscripted: %+v",
				cfg.policy, cfg.pad, d, s)
		}
	}
}

// TestScriptedRecordingRoundTrip captures a scripted run through a
// Recording tee and replays it into a fresh machine: stats must be
// identical and the measurement boundary must land where the direct
// run reset.
func TestScriptedRecordingRoundTrip(t *testing.T) {
	const visits = 600
	spec, _ := ByName("sjeng")
	sc := spec.CaptureScript(visits)

	captured := buildEnv(spec, 1, 5, 3)
	rec := trace.NewRecording(0)
	captured.Sink = rec.Record(captured.Core)
	captured.Heap = alloc.New(alloc.Config{
		Base: 0x1000_0000, ChunkSize: 64 << 10, QuarantineFrac: 0.25,
		UseCForm: true, Protocol: alloc.ProtocolDirty,
		AllocSiteCost: 250, PerLineCost: 40, UnprotectedHookCost: 40,
	}, captured.Sink)
	captured.ResetHook = rec.MarkReset
	spec.RunScripted(captured, sc)
	rec.SetHeapBytes(captured.Heap.Footprint())
	cs := collect(captured)

	if rec.ResetAt() <= 0 || rec.ResetAt() >= rec.Len() {
		t.Fatalf("reset boundary %d out of range (0, %d)", rec.ResetAt(), rec.Len())
	}

	hier := cache.New(cache.Westmere(), mem.New())
	c := cpu.New(cpu.DefaultConfig(), hier)
	b := trace.NewBatch(trace.DefaultBatchCap)
	rec.ReplayRange(c, b, 0, rec.ResetAt())
	c.ResetTiming()
	hier.ResetStats()
	rec.ReplayRange(c, b, rec.ResetAt(), rec.Len())

	if c.Stats != cs.core {
		t.Errorf("core stats diverge\ncaptured: %+v\nreplayed: %+v", cs.core, c.Stats)
	}
	if c.Cycles() != cs.cyc {
		t.Errorf("cycles diverge: captured %.2f replayed %.2f", cs.cyc, c.Cycles())
	}
	if hier.L1Stats() != cs.l1 || hier.L2Stats() != cs.l2 || hier.L3Stats() != cs.l3 {
		t.Errorf("cache stats diverge:\ncaptured: %+v %+v %+v\nreplayed: %+v %+v %+v",
			cs.l1, cs.l2, cs.l3, hier.L1Stats(), hier.L2Stats(), hier.L3Stats())
	}
	if hier.Stats != cs.hier {
		t.Errorf("hierarchy stats diverge\ncaptured: %+v\nreplayed: %+v", cs.hier, hier.Stats)
	}
	if rec.HeapBytes() != cs.foot {
		t.Errorf("heap bytes %d, want %d", rec.HeapBytes(), cs.foot)
	}
}
