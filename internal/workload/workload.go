// Package workload provides the synthetic stand-ins for the SPEC
// CPU2006 C/C++ benchmarks used throughout the Califorms evaluation.
//
// The real benchmarks (and their ref inputs) are not available in an
// offline Go environment, so each benchmark is replaced by a kernel
// parameterized along the axes that the paper's experiments actually
// measure: working-set size, pointer-chase fraction (dependent-load
// MLP), store fraction, compute-per-memory-access ratio, allocation
// churn (malloc intensity), and the struct shapes the program visits.
// The parameters are chosen to mimic each benchmark's published memory
// character (e.g. mcf pointer-chases a large graph, perlbench is
// malloc-intensive, hmmer is cache-resident compute). Absolute IPC is
// not the reproduction target; the relative response to Califorms'
// layout changes and CFORM traffic is.
package workload

import (
	"repro/internal/alloc"
	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/layout"
	"repro/internal/trace"
)

// Spec parameterizes one synthetic benchmark kernel.
type Spec struct {
	Name string
	// LiveObjects is the steady-state number of heap objects; together
	// with the struct sizes it sets the working set.
	LiveObjects int
	// TypeCount is how many distinct struct types the kernel uses.
	TypeCount int
	// ArrayHeavy biases generated structs toward embedded buffers.
	ArrayHeavy bool
	// ChaseFrac is the fraction of object visits performed as a
	// dependent pointer chase (serialized misses).
	ChaseFrac float64
	// StoreFrac is the fraction of field accesses that are stores.
	StoreFrac float64
	// ComputePerMem is the number of non-memory instructions retired
	// per field access.
	ComputePerMem int
	// AllocPer1K is the number of free+alloc churn pairs per 1000
	// object visits (malloc intensity).
	AllocPer1K int
	// FieldsPerVisit is how many fields are touched per object visit.
	FieldsPerVisit int
	// StructFrac is the fraction of visits that touch heap struct
	// objects; the rest stream over a flat, never-padded buffer
	// (arrays, I/O buffers, stack spill space). Real programs spend
	// much of their memory traffic outside compound types, which is
	// why the paper's padding overheads stay single-digit; 0 means 1.0
	// for backward compatibility.
	StructFrac float64
	// Seed fixes the kernel's RNG and struct shapes.
	Seed int64
}

// Fig10Set returns the 19 benchmarks of Figure 10 in the paper's
// order.
func Fig10Set() []Spec { return append([]Spec(nil), specAll...) }

// Fig11Set returns the 16 benchmarks used in Figures 11 and 12 (the
// paper omits dealII, gcc and omnetpp there for toolchain reasons).
func Fig11Set() []Spec {
	skip := map[string]bool{"dealII": true, "gcc": true, "omnetpp": true}
	var out []Spec
	for _, s := range specAll {
		if !skip[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

// ByName returns the named spec.
func ByName(name string) (Spec, bool) {
	for _, s := range specAll {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// specAll mimics the SPEC CPU2006 C/C++ subset of the paper.
// Working-set intuition: ~100B/object, so 10k objects ≈ 1MB (L3
// resident), 100k ≈ 10MB (DRAM streaming), 300 ≈ 30KB (L1/L2).
var specAll = []Spec{
	{Name: "astar", LiveObjects: 30000, TypeCount: 6, ChaseFrac: 0.5, StoreFrac: 0.2, ComputePerMem: 4, AllocPer1K: 15, FieldsPerVisit: 4, StructFrac: 0.68, Seed: 101},
	{Name: "bzip2", LiveObjects: 25000, TypeCount: 4, ArrayHeavy: true, ChaseFrac: 0.05, StoreFrac: 0.35, ComputePerMem: 5, AllocPer1K: 3, FieldsPerVisit: 6, StructFrac: 0.18, Seed: 102},
	{Name: "dealII", LiveObjects: 15000, TypeCount: 10, ChaseFrac: 0.25, StoreFrac: 0.25, ComputePerMem: 7, AllocPer1K: 8, FieldsPerVisit: 5, StructFrac: 0.45, Seed: 103},
	{Name: "gcc", LiveObjects: 20000, TypeCount: 14, ChaseFrac: 0.35, StoreFrac: 0.3, ComputePerMem: 5, AllocPer1K: 14, FieldsPerVisit: 4, StructFrac: 0.52, Seed: 104},
	{Name: "gobmk", LiveObjects: 4000, TypeCount: 8, ChaseFrac: 0.2, StoreFrac: 0.3, ComputePerMem: 6, AllocPer1K: 16, FieldsPerVisit: 4, StructFrac: 0.45, Seed: 105},
	{Name: "h264ref", LiveObjects: 12000, TypeCount: 7, ArrayHeavy: true, ChaseFrac: 0.1, StoreFrac: 0.4, ComputePerMem: 6, AllocPer1K: 12, FieldsPerVisit: 8, StructFrac: 0.52, Seed: 106},
	{Name: "hmmer", LiveObjects: 250, TypeCount: 3, ChaseFrac: 0.0, StoreFrac: 0.3, ComputePerMem: 12, AllocPer1K: 2, FieldsPerVisit: 6, StructFrac: 0.45, Seed: 107},
	{Name: "lbm", LiveObjects: 120000, TypeCount: 2, ArrayHeavy: true, ChaseFrac: 0.0, StoreFrac: 0.5, ComputePerMem: 3, AllocPer1K: 0, FieldsPerVisit: 6, StructFrac: 0.30, Seed: 108},
	{Name: "libquantum", LiveObjects: 150000, TypeCount: 2, ChaseFrac: 0.0, StoreFrac: 0.3, ComputePerMem: 3, AllocPer1K: 0, FieldsPerVisit: 3, StructFrac: 0.22, Seed: 109},
	{Name: "mcf", LiveObjects: 90000, TypeCount: 3, ChaseFrac: 0.8, StoreFrac: 0.15, ComputePerMem: 2, AllocPer1K: 3, FieldsPerVisit: 3, StructFrac: 0.85, Seed: 110},
	{Name: "milc", LiveObjects: 100000, TypeCount: 3, ArrayHeavy: true, ChaseFrac: 0.0, StoreFrac: 0.4, ComputePerMem: 4, AllocPer1K: 5, FieldsPerVisit: 6, StructFrac: 0.45, Seed: 111},
	{Name: "namd", LiveObjects: 3000, TypeCount: 5, ChaseFrac: 0.05, StoreFrac: 0.25, ComputePerMem: 14, AllocPer1K: 0, FieldsPerVisit: 6, StructFrac: 0.38, Seed: 112},
	{Name: "omnetpp", LiveObjects: 40000, TypeCount: 12, ChaseFrac: 0.45, StoreFrac: 0.3, ComputePerMem: 4, AllocPer1K: 18, FieldsPerVisit: 4, StructFrac: 0.68, Seed: 113},
	{Name: "perlbench", LiveObjects: 8000, TypeCount: 10, ChaseFrac: 0.3, StoreFrac: 0.35, ComputePerMem: 5, AllocPer1K: 20, FieldsPerVisit: 4, StructFrac: 0.60, Seed: 114},
	{Name: "povray", LiveObjects: 2000, TypeCount: 8, ChaseFrac: 0.15, StoreFrac: 0.2, ComputePerMem: 12, AllocPer1K: 12, FieldsPerVisit: 5, StructFrac: 0.45, Seed: 115},
	{Name: "sjeng", LiveObjects: 1500, TypeCount: 5, ChaseFrac: 0.1, StoreFrac: 0.25, ComputePerMem: 10, AllocPer1K: 3, FieldsPerVisit: 4, StructFrac: 0.38, Seed: 116},
	{Name: "soplex", LiveObjects: 45000, TypeCount: 6, ArrayHeavy: true, ChaseFrac: 0.2, StoreFrac: 0.3, ComputePerMem: 5, AllocPer1K: 10, FieldsPerVisit: 5, StructFrac: 0.38, Seed: 117},
	{Name: "sphinx3", LiveObjects: 30000, TypeCount: 5, ChaseFrac: 0.1, StoreFrac: 0.2, ComputePerMem: 6, AllocPer1K: 8, FieldsPerVisit: 5, StructFrac: 0.30, Seed: 118},
	{Name: "xalancbmk", LiveObjects: 50000, TypeCount: 14, ChaseFrac: 0.55, StoreFrac: 0.25, ComputePerMem: 3, AllocPer1K: 24, FieldsPerVisit: 3, StructFrac: 0.75, Seed: 119},
}

// Types generates the kernel's struct definitions.
func (s Spec) Types() []layout.StructDef {
	p := layout.SPECProfile()
	if s.ArrayHeavy {
		p.ArrayProb = 0.35
		p.ArrayMax = 96
	}
	return p.Generate(s.TypeCount, s.Seed)
}

// Env bundles the simulated machine state a kernel runs against.
type Env struct {
	Core *cpu.Core
	Heap *alloc.Heap
	// Ins holds the instrumented form of each kernel type.
	Ins []*compiler.Instrumented
	// Sink, when set, receives the kernel's op stream instead of Core.
	// The capture/replay engine points it at a recording tee wrapped
	// around the core; the heap must be built over the same sink so
	// allocator ops are captured in program order.
	Sink trace.Sink
	// ResetHook, when set, is invoked at the steady-state measurement
	// boundary, right after timing and cache statistics reset. The
	// capture engine uses it to mark the boundary in the recording.
	ResetHook func()
}

// SinkOrCore returns the op destination: Sink when set, else the core.
func (e *Env) SinkOrCore() trace.Sink {
	if e.Sink != nil {
		return e.Sink
	}
	return e.Core
}
