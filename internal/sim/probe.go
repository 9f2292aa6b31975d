package sim

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// genPasses counts workload generation passes — runs where the kernel
// and allocator actually execute (RunScripted, which Run calls, and one
// per RunFanout group, however many sibling machines it feeds). Replays
// from a recording do not count. The counter is cumulative and always
// on (one atomic add per run, nothing per op); tests of the
// capture-sharing contract snapshot it around a sweep and assert the
// delta equals the number of distinct op streams, proving a machine
// axis adds consumers, never generation work.
var genPasses atomic.Uint64

// GenerationPasses returns the cumulative generation-pass count.
func GenerationPasses() uint64 { return genPasses.Load() }

// The probe is the measurement hook behind internal/perf: while
// enabled, every Run/RunScripted/RunReplayed accumulates its
// simulated-instruction count and its per-stage CPU cost into atomic
// counters. Stages are: machine/layout setup, scripted kernel
// simulation, recording capture (a scripted run teeing its op
// stream into a trace.Recording), and recording replay. The hook
// costs two atomic loads per run when disabled — nothing per
// simulated op — so it never perturbs the hot path it measures.
var probe struct {
	enabled atomic.Bool
	ops     atomic.Uint64
	// genStart is the cumulative genPasses value at StartProbe; the
	// window's generation-pass count is the delta at StopProbe. Zero
	// on a warm content-addressed store is the reuse invariant the CI
	// store-reuse job gates on.
	genStart  atomic.Uint64
	setupNs   atomic.Int64
	simNs     atomic.Int64
	captureNs atomic.Int64
	replayNs  atomic.Int64
	// machines collects the names of the machine descriptions built
	// during the window (the perf report's machine column). Names are
	// taken as-is from the Desc: an edited copy that keeps its base's
	// name is reported under the base name. Guarded by mu; touched
	// once per run, never per op.
	mu       sync.Mutex
	machines map[string]bool
}

// probeMachine records a built machine's name in the window.
func probeMachine(name string) {
	if !probe.enabled.Load() {
		return
	}
	if name == "" {
		name = "custom"
	}
	probe.mu.Lock()
	probe.machines[name] = true
	probe.mu.Unlock()
}

// ProbeMachine is probeMachine for engines that build machines outside
// sim's own entry points (internal/multicore).
func ProbeMachine(name string) { probeMachine(name) }

// ProbeTotals is one measurement window's accumulated cost. Stage
// seconds are summed across parallel workers (each worker's wall
// presence inside the stage, which equals CPU time unless the pool is
// oversubscribed), so their sum can exceed the wall time of the
// window; the window's wall time is the true critical path and is
// measured by the caller.
type ProbeTotals struct {
	// Ops is the total work performed: simulated instructions retired
	// in the measured region for simulation runs, plus work units
	// declared via CountWork by non-simulating experiments.
	Ops uint64
	// SetupSeconds covers machine construction and layout
	// instrumentation. SimSeconds covers direct/scripted kernel
	// execution that was not captured; CaptureSeconds covers scripted
	// runs that recorded their op stream; ReplaySeconds covers runs
	// served from a recording.
	SetupSeconds   float64
	SimSeconds     float64
	CaptureSeconds float64
	ReplaySeconds  float64
	// GenPasses is the number of workload generation passes performed
	// inside the window (see GenerationPasses): kernel+allocator
	// executions, however many sibling machines each one fed. Runs
	// served from the result store or replayed from a stored
	// recording perform none.
	GenPasses uint64
	// Machines lists (sorted) the machine descriptions built during
	// the window — registry names, derived-variant names, or "custom"
	// for anonymous descriptions.
	Machines []string
}

// StartProbe zeroes the counters and enables accumulation.
func StartProbe() {
	probe.ops.Store(0)
	probe.genStart.Store(genPasses.Load())
	probe.setupNs.Store(0)
	probe.simNs.Store(0)
	probe.captureNs.Store(0)
	probe.replayNs.Store(0)
	probe.mu.Lock()
	probe.machines = make(map[string]bool)
	probe.mu.Unlock()
	probe.enabled.Store(true)
}

// StopProbe disables accumulation and returns the window's totals.
func StopProbe() ProbeTotals {
	probe.enabled.Store(false)
	probe.mu.Lock()
	machines := make([]string, 0, len(probe.machines))
	for name := range probe.machines {
		machines = append(machines, name)
	}
	probe.mu.Unlock()
	sort.Strings(machines)
	return ProbeTotals{
		Ops:            probe.ops.Load(),
		GenPasses:      genPasses.Load() - probe.genStart.Load(),
		SetupSeconds:   float64(probe.setupNs.Load()) / 1e9,
		SimSeconds:     float64(probe.simNs.Load()) / 1e9,
		CaptureSeconds: float64(probe.captureNs.Load()) / 1e9,
		ReplaySeconds:  float64(probe.replayNs.Load()) / 1e9,
		Machines:       machines,
	}
}

// CountWork adds n work units to the probe window. Experiments that
// perform no machine simulation (layout corpus generation, VLSI
// models, the analytic security tables) declare their deterministic
// work volume through it, so the perf report carries a meaningful,
// gateable rate for every experiment instead of sim_ops: 0.
func CountWork(n uint64) {
	if probe.enabled.Load() {
		probe.ops.Add(n)
	}
}

// probeOps accumulates a finished run's measured-region instructions.
func probeOps(n uint64) {
	if probe.enabled.Load() {
		probe.ops.Add(n)
	}
}

// ProbeReplayStart returns the timestamp opening an externally timed
// stage window (zero when the probe is disabled). The multicore
// engine's interleaved replay runs outside sim's own entry points, so
// it brackets its pass with ProbeReplayStart / ProbeSetupDone /
// ProbeReplayed to land in the same accounting Run and RunReplayed
// use.
func ProbeReplayStart() time.Time { return probeStart() }

// ProbeSetupDone charges the elapsed time since t0 to the setup stage
// (machine construction) and returns the following stage's timestamp.
func ProbeSetupDone(t0 time.Time) time.Time { return probeStage(t0, &probe.setupNs) }

// ProbeReplayed closes an externally timed replay stage: the elapsed
// time since t0 is charged to the replay stage and n simulated ops to
// the window. No-op when t0 is zero (probe disabled at start).
func ProbeReplayed(t0 time.Time, n uint64) {
	probeStage(t0, &probe.replayNs)
	probeOps(n)
}

// probeStart returns the stage timestamp, zero when disabled.
func probeStart() time.Time {
	if !probe.enabled.Load() {
		return time.Time{}
	}
	return time.Now()
}

// probeStage accumulates a stage duration and returns the next
// stage's timestamp.
func probeStage(t0 time.Time, into *atomic.Int64) time.Time {
	if t0.IsZero() {
		return t0
	}
	now := time.Now()
	into.Add(int64(now.Sub(t0)))
	return now
}
