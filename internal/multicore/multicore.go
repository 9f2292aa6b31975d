// Package multicore simulates shared-LLC multiprocessors: N cores,
// each owning a private L1/L2 hierarchy and timing core, all sharing
// one inclusive L3 (cache.SharedL3) and main memory, each consuming
// its own recorded op stream (trace.Recording) through a
// deterministic quantum-based round-robin interleaver.
//
// The model targets multiprogrammed contention, the workload axis the
// paper's one-core-per-machine evaluation cannot express: Califorms'
// costs — extra spill/fill traffic, sentinel lines occupying shared
// capacity, the +1-cycle L2/L3 variants — compound when independent
// programs fight over LLC capacity. Cores interact only through
// shared-L3 state (capacity and replacement interference, per-core
// hit/miss accounting); there is no L3 bandwidth or queuing model, so
// contention here is a capacity effect, deliberately conservative.
//
// Determinism: the interleaver advances cores on a single goroutine
// in slot order, a fixed quantum of ops per turn, so the global op
// interleaving — and therefore every cache state and every counter —
// is a pure function of (streams, configs, quantum). Each core's
// addresses are rebased by core<<AddrSpaceShift, keeping the
// programs' address spaces disjoint (multiprogrammed, not shared
// memory); core 0 is unshifted, which is what makes a one-core run
// bit-identical to sim.RunReplayed on the same recording.
//
// Execution proceeds in two phases. Warmup: each core replays its
// recording's pre-boundary segment (heap population), round robin;
// cores that finish early idle with their caches warm. At the
// barrier, every boundary-carrying core resets its timing and private
// stats and the shared L3 resets aggregate and per-core counters
// together. Measurement: cores replay their post-boundary segment
// round robin; a core that finishes snapshots its Result at that
// instant and then wraps to the boundary, continuing to generate
// contention until every core has completed its own stream once (the
// standard multiprogrammed-throughput methodology), at which point
// the run stops.
package multicore

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// AddrSpaceShift is the per-core address-space stride: core i's
// recorded addresses are rebased by i << AddrSpaceShift (16TB apart),
// far above any workload's footprint and line-aligned by construction.
// Core 0 replays unshifted.
const AddrSpaceShift = 44

// DefaultQuantum is the interleaver's default scheduling slice in ops.
// It is small enough that cores' L3 traffic genuinely interleaves
// within one another's reuse distances, and large enough that the
// per-turn bookkeeping is invisible next to the simulation itself.
const DefaultQuantum = 1024

// Stream is one core's workload: a recorded op stream and the name
// reported in its Result.
type Stream struct {
	Name string
	Rec  *trace.Recording
}

// Config describes the machine. Machine is the shared-LLC machine
// description the run derives its hardware from: each core gets the
// description's private L1/L2 geometry and core parameters, and the
// description's L3 geometry builds the single shared level. The zero
// description is the default Table 3 westmere.
type Config struct {
	Machine machine.Desc
	// Quantum is the interleaver slice in ops (<=0: DefaultQuantum).
	Quantum int
}

// RunResult is a finished multicore run: one sim.Result per core
// (snapshotted when that core first completed its measured stream),
// plus the shared-L3 view at end of run.
type RunResult struct {
	// Cores holds the per-core results in slot order. L3MissRate is
	// each core's own share of the shared-L3 traffic.
	Cores []sim.Result
	// L3 is the aggregate shared-L3 counter state at end of run; it
	// includes the wrap-around traffic cores generated after their
	// snapshot, and always equals the field-wise sum of L3PerCore
	// (hits, misses, writebacks).
	L3        cache.LevelStats
	L3PerCore []cache.LevelStats
	// L3Occupancy counts the valid shared-L3 lines owned by each core
	// at end of run (attribution by address space).
	L3Occupancy []int
}

// Run executes the streams on an N-core shared-L3 machine (N =
// len(streams)) and returns the per-core results. Runs are
// deterministic; a single-stream run is bit-identical to
// sim.RunReplayed of that recording on the same configuration.
func Run(cfg Config, streams []Stream) RunResult {
	t0 := sim.ProbeReplayStart()
	n := len(streams)
	if n == 0 {
		return RunResult{}
	}
	d := cfg.Machine.OrDefault()
	sim.ProbeMachine(d.Name)
	quantum := cfg.Quantum
	if quantum <= 0 {
		quantum = DefaultQuantum
	}

	shared := cache.NewSharedL3(d.Hier.L3, mem.New(), n)
	hiers := make([]*cache.Hierarchy, n)
	cores := make([]*cpu.Core, n)
	sinks := make([]trace.BatchSink, n)
	cursors := make([]*trace.ReplayCursor, n)
	warm := make([]int, n)
	// One watchdog deadline covers the whole run; each core's sink
	// checks it at its batch boundaries.
	check := sim.Watchdog()
	for i, st := range streams {
		hiers[i] = cache.NewShared(d.Hier, shared, i)
		cores[i] = cpu.New(d.Core, hiers[i])
		sinks[i] = cores[i]
		if check != nil {
			sinks[i] = trace.NewGuard(cores[i], check)
		}
		cursors[i] = trace.NewReplayCursor(st.Rec, uint64(i)<<AddrSpaceShift)
		if b := st.Rec.ResetAt(); b >= 0 {
			warm[i] = b
		}
	}
	b := trace.NewBatch(trace.DefaultBatchCap)
	t0 = sim.ProbeSetupDone(t0)

	// Phase 1: interleaved warmup up to each core's boundary.
	for {
		active := false
		for i, c := range cursors {
			if c.Pos() < warm[i] {
				left := warm[i] - c.Pos()
				if left > quantum {
					left = quantum
				}
				c.Replay(sinks[i], b, left)
				active = true
			}
		}
		if !active {
			break
		}
	}

	// Measurement barrier: cores whose stream carries a boundary reset
	// their timing and private caches; the shared L3 resets aggregate
	// and per-core counters together so the sum property holds over
	// the measured region. (Streams without a boundary — whole-stream
	// measurement, as in sim.RunReplayed — skip their private reset.)
	anyBoundary := false
	for i, st := range streams {
		if st.Rec.ResetAt() >= 0 {
			cores[i].ResetTiming()
			hiers[i].ResetStats()
			anyBoundary = true
		}
	}
	if anyBoundary {
		shared.ResetStats()
	}

	// Phase 2: interleaved measurement with wrap-around pressure.
	out := RunResult{Cores: make([]sim.Result, n)}
	done := make([]bool, n)
	ndone := 0
	snapshot := func(i int) {
		out.Cores[i] = sim.CoreResult(streams[i].Name, cores[i], hiers[i], streams[i].Rec.HeapBytes())
		done[i] = true
		ndone++
	}
	for i, c := range cursors {
		c.Mark() // wrap target: the measurement boundary
		if c.Pos() >= c.Len() {
			snapshot(i) // empty measured segment completes immediately
		}
	}
	for ndone < n {
		for i, c := range cursors {
			if c.Pos() >= c.Len() {
				c.Rewind()
			}
			c.Replay(sinks[i], b, quantum)
			if c.Pos() >= c.Len() && !done[i] {
				snapshot(i)
				if ndone == n {
					break
				}
			}
		}
	}

	// Close the replay stage before the end-of-run folding (occupancy
	// scan, release), mirroring RunReplayed's attribution.
	var ops uint64
	for _, r := range out.Cores {
		ops += r.Instructions
	}
	sim.ProbeReplayed(t0, ops)

	out.L3 = shared.TotalStats()
	out.L3PerCore = make([]cache.LevelStats, n)
	for i := range out.L3PerCore {
		out.L3PerCore[i] = shared.CoreStats(i)
	}
	out.L3Occupancy = shared.Occupancy(AddrSpaceShift - 6)
	for _, h := range hiers {
		h.Release()
	}
	shared.Release()
	return out
}
