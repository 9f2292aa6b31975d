// Package sim binds the Califorms substrates — timing core, cache
// hierarchy, allocator, compiler pass and workloads — into runnable
// full-system simulations, and implements the drivers that regenerate
// every experiment of the paper's evaluation (§8).
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/alloc"
	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// PolicyChoice selects the protection configuration of a run.
type PolicyChoice int

const (
	// PolicyNone is the uninstrumented baseline.
	PolicyNone PolicyChoice = iota
	PolicyOpportunistic
	PolicyFull
	PolicyIntelligent
)

func (p PolicyChoice) String() string {
	switch p {
	case PolicyNone:
		return "baseline"
	case PolicyOpportunistic:
		return "opportunistic"
	case PolicyFull:
		return "full"
	case PolicyIntelligent:
		return "intelligent"
	default:
		return fmt.Sprintf("PolicyChoice(%d)", int(p))
	}
}

func (p PolicyChoice) layoutPolicy() layout.Policy {
	switch p {
	case PolicyOpportunistic:
		return layout.Opportunistic
	case PolicyFull:
		return layout.Full
	case PolicyIntelligent:
		return layout.Intelligent
	default:
		panic("sim: baseline has no layout policy")
	}
}

// RunConfig describes one simulation run.
type RunConfig struct {
	Policy PolicyChoice
	// MinPad/MaxPad bound random security spans; FixedPad overrides
	// them (Figure 4 sweep).
	MinPad, MaxPad, FixedPad int
	// UseCForm issues CFORM instructions at allocation sites. Off, a
	// policy still changes layouts ("without CFORM" bars of Figures
	// 11/12).
	UseCForm bool
	// LayoutSeed varies the compiler's randomization (the paper
	// builds three binaries per configuration).
	LayoutSeed int64
	// Machine selects the simulated machine — cache hierarchy and
	// timing core together. The zero value is the default Table 3
	// westmere (machine.Default()); registry machines and derived
	// variants are plain values, so a sensitivity config edits a copy
	// (e.g. Hier.ExtraL2L3) rather than sharing a pointer. The machine
	// consumes the workload's op stream without influencing it, which
	// is why it never enters the stream identity (StreamOf).
	Machine machine.Desc
	// Heap overrides the allocator configuration entirely (ablation
	// studies); UseCForm/Protocol defaults below do not apply then.
	Heap *alloc.Config
	// Visits is the number of object visits the kernel performs.
	Visits int
}

// visitsOrDefault resolves a visit count: <=0 means the default of
// 100 000. CaptureScript and the store keys both resolve through it,
// so a defaulted cell's script, result and key name one region.
func visitsOrDefault(v int) int {
	if v <= 0 {
		return 100_000
	}
	return v
}

// Result captures a finished run.
type Result struct {
	Benchmark    string
	Cycles       float64
	Instructions uint64
	CForms       uint64
	HeapBytes    uint64
	L1MissRate   float64
	L2MissRate   float64
	L3MissRate   float64
	Exceptions   uint64
	Suppressed   uint64
	Spills       uint64
	Fills        uint64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / r.Cycles
}

// rig bundles one freshly built simulated machine.
type rig struct {
	hier *cache.Hierarchy
	core *cpu.Core
}

// buildMachine constructs the hierarchy and core of one run from its
// machine description (the zero description resolves to the default
// Table 3 westmere).
func buildMachine(rc RunConfig) rig {
	d := rc.Machine.OrDefault()
	probeMachine(d.Name)
	hier := cache.New(d.Hier, mem.New())
	return rig{hier: hier, core: cpu.New(d.Core, hier)}
}

// buildHeap constructs the run's allocator over the given op sink.
func buildHeap(rc RunConfig, sink trace.Sink) *alloc.Heap {
	heapCfg := alloc.DefaultConfig()
	heapCfg.UseCForm = rc.UseCForm && rc.Policy != PolicyNone
	// Performance experiments use the dirty-before-use protocol: it
	// charges CFORM work only for objects that actually carry
	// security bytes, which is what the paper's dummy-store emulation
	// measures (§8.2). The clean-before-use protocol (the design's
	// strongest mode) is exercised by the security tests and examples.
	heapCfg.Protocol = alloc.ProtocolDirty
	if rc.Heap != nil {
		heapCfg = *rc.Heap
	}
	return alloc.New(heapCfg, sink)
}

// instrument builds the run's instrumented type layouts.
func instrument(spec workload.Spec, rc RunConfig) []*compiler.Instrumented {
	defs := spec.Types()
	ins := make([]*compiler.Instrumented, len(defs))
	lr := rand.New(rand.NewSource(rc.LayoutSeed ^ spec.Seed))
	for i := range defs {
		if rc.Policy == PolicyNone {
			ins[i] = compiler.InstrumentNone(defs[i])
			continue
		}
		cfg := layout.PolicyConfig{MinPad: rc.MinPad, MaxPad: rc.MaxPad, FixedPad: rc.FixedPad, Rand: lr}
		ins[i] = compiler.Instrument(defs[i], rc.Policy.layoutPolicy(), cfg)
	}
	return ins
}

// CoreResult folds one finished core and its hierarchy into a Result
// record. The L3 miss rate is the core's own share of the (possibly
// shared) L3 traffic — identical to the aggregate for a private L3,
// and the per-core contention view on a multicore machine, which is
// why internal/multicore folds its per-core snapshots through this.
func CoreResult(name string, core *cpu.Core, hier *cache.Hierarchy, heapBytes uint64) Result {
	return Result{
		Benchmark:    name,
		Cycles:       core.Cycles(),
		Instructions: core.Stats.Instructions,
		CForms:       core.Stats.CForms,
		HeapBytes:    heapBytes,
		L1MissRate:   hier.L1Stats().MissRate(),
		L2MissRate:   hier.L2Stats().MissRate(),
		L3MissRate:   hier.L3CoreStats().MissRate(),
		Exceptions:   core.Stats.Delivered,
		Suppressed:   core.Stats.Suppressed,
		Spills:       hier.Stats.Spills,
		Fills:        hier.Stats.Fills,
	}
}

// result folds a finished machine (and the run's heap footprint) into
// the exported record.
func (m rig) result(name string, heapBytes uint64) Result {
	return CoreResult(name, m.core, m.hier, heapBytes)
}

// Run executes one workload under one configuration on a fresh
// machine and returns its metrics. It captures the benchmark's
// decision script and runs the kernel from it, sharing nothing with
// any other run. Runs are deterministic, which is what lets a store
// serve a repeat run as a lookup under its RunKey; the harness's
// stream table does that for every sweep cell and never calls Run.
// Run is the tests' independent referee for those cells and the
// single-run entry point of the examples.
func Run(spec workload.Spec, rc RunConfig) Result {
	return RunScripted(spec, rc, CaptureScript(spec, rc.Visits), nil)
}

// CaptureScript resolves a benchmark's kernel decision stream for the
// given visit count (see workload.Script; <=0 resolves to the default
// of 100 000), charging the cost to the probe's capture stage. The
// harness captures one script per benchmark per sweep and shares it
// across every configuration cell.
func CaptureScript(spec workload.Spec, visits int) *workload.Script {
	t := probeStart()
	sc := spec.CaptureScript(visitsOrDefault(visits))
	probeStage(t, &probe.captureNs)
	return sc
}

// RunScripted executes one workload cell from a pre-captured decision
// script (see workload.Script): the machine, the layouts and the heap
// are built from rc, and the kernel takes its decisions from the
// script. When rec is non-nil the full op stream — kernel and
// allocator ops in program order — is captured into it along with the
// measurement boundary and heap footprint, so sibling configurations
// with an identical stream can be served by RunReplayed.
func RunScripted(spec workload.Spec, rc RunConfig, sc *workload.Script, rec *trace.Recording) Result {
	genPasses.Add(1)
	t := probeStart()
	m := buildMachine(rc)
	env := &workload.Env{Core: m.core, Ins: instrument(spec, rc)}
	if rec != nil {
		env.Sink = rec.Record(m.core)
		env.ResetHook = rec.MarkReset
	}
	if check := Watchdog(); check != nil {
		// The guard wraps outermost so the recording tee (when present)
		// still sees every op; batch delivery forwards through the tee's
		// own batched path, leaving results and captures unchanged.
		env.Sink = trace.NewGuard(env.SinkOrCore(), check)
	}
	env.Heap = buildHeap(rc, env.SinkOrCore())
	t = probeStage(t, &probe.setupNs)
	spec.RunScripted(env, sc)
	if rec != nil {
		rec.SetHeapBytes(env.Heap.Footprint())
		probeStage(t, &probe.captureNs)
	} else {
		probeStage(t, &probe.simNs)
	}
	probeOps(m.core.Stats.Instructions)
	r := m.result(spec.Name, env.Heap.Footprint())
	m.hier.Release()
	return r
}

// RunFanout executes a whole stream group — sibling configurations
// whose op streams provably coincide — in a single pass: the script
// drives one kernel and one allocator, and every flushed batch is
// multicast to each sibling's fresh machine in order. Semantically
// each machine consumes exactly the op stream an independent run
// would have fed it, so per-cell results are byte-identical to Run;
// mechanically the kernel, the allocator and the batch construction
// are paid once for N machines. rcs[0] is the capture configuration
// (it also parameterizes the shared heap; stream-equal siblings have
// equal heap configurations by definition of StreamOf).
// When rec is non-nil the generated op stream is additionally
// captured into it (with the measurement boundary and heap
// footprint), so the store-aware scheduler can persist the stream
// while fanning it out — the tee forwards whole batches, leaving
// every machine's dispatch, and therefore every result, unchanged.
func RunFanout(spec workload.Spec, rcs []RunConfig, sc *workload.Script, rec *trace.Recording) []Result {
	genPasses.Add(1)
	t := probeStart()
	machines := make([]rig, len(rcs))
	sinks := make([]trace.BatchSink, len(rcs))
	for i, rc := range rcs {
		machines[i] = buildMachine(rc)
		sinks[i] = machines[i].core
	}
	mc := trace.NewMulticast(probe.enabled.Load(), sinks...)
	var sink trace.Sink = mc
	if rec != nil {
		sink = rec.Record(mc)
	}
	if check := Watchdog(); check != nil {
		sink = trace.NewGuard(sink, check)
	}
	env := &workload.Env{
		Core: machines[0].core,
		Heap: buildHeap(rcs[0], sink),
		Ins:  instrument(spec, rcs[0]),
		Sink: sink,
		// The kernel resets the primary machine at the measurement
		// boundary; the hook extends the reset to every sibling and
		// marks the boundary in the recording.
		ResetHook: func() {
			for _, m := range machines[1:] {
				m.core.ResetTiming()
				m.hier.ResetStats()
			}
			if rec != nil {
				rec.MarkReset()
			}
		},
	}
	t = probeStage(t, &probe.setupNs)
	spec.RunScripted(env, sc)
	if rec != nil {
		rec.SetHeapBytes(env.Heap.Footprint())
	}
	if !t.IsZero() {
		// The fan-out pass generates once and feeds N machines; the
		// siblings' dispatch share is replay cost, the rest (kernel,
		// allocator, primary machine) is capture cost.
		sib := int64(mc.SiblingSeconds() * 1e9)
		probe.replayNs.Add(sib)
		passNs := int64(time.Since(t))
		if passNs > sib {
			probe.captureNs.Add(passNs - sib)
		}
	}
	out := make([]Result, len(rcs))
	for i, m := range machines {
		out[i] = m.result(spec.Name, env.Heap.Footprint())
		m.hier.Release()
	}
	probeOps(totalOps(out))
	return out
}

// totalOps sums the measured-region instruction counts of a fan-out
// group's results.
func totalOps(rs []Result) uint64 {
	var n uint64
	for _, r := range rs {
		n += r.Instructions
	}
	return n
}

// RunReplayed executes one workload cell purely from a recorded op
// stream: the machine is built from rc (hierarchy and core overrides
// apply), the recording is streamed through the batched dispatch path,
// and timing resets at the recorded measurement boundary. Neither the
// kernel nor the allocator runs. For any configuration whose op
// stream matches the capture run's, the returned Result is
// byte-identical to a direct Run.
func RunReplayed(name string, rc RunConfig, rec *trace.Recording) Result {
	if rec.Len() == 0 {
		// A recording holding only metadata (a reset boundary, a heap
		// footprint) replays to a well-formed zero result — no machine
		// is built, and no caller has to special-case the shape.
		return Result{Benchmark: name, HeapBytes: rec.HeapBytes()}
	}
	t := probeStart()
	m := buildMachine(rc)
	var sink trace.BatchSink = m.core
	if check := Watchdog(); check != nil {
		sink = trace.NewGuard(m.core, check)
	}
	b := trace.NewBatch(trace.DefaultBatchCap)
	t = probeStage(t, &probe.setupNs)
	c := trace.NewReplayCursor(rec, 0)
	if boundary := rec.ResetAt(); boundary >= 0 {
		c.Replay(sink, b, boundary)
		m.core.ResetTiming()
		m.hier.ResetStats()
	}
	c.Replay(sink, b, rec.Len())
	probeStage(t, &probe.replayNs)
	probeOps(m.core.Stats.Instructions)
	r := m.result(name, rec.HeapBytes())
	m.hier.Release()
	return r
}
