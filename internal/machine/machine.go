// Package machine is the declarative machine-description layer of the
// simulator: a validated description of one simulated machine — cache
// geometry and latencies per level, DRAM latency, timing-core
// parameters, and the multicore shared-LLC shape — plus a named
// registry of machines the experiment harness can sweep over.
//
// The description is deliberately a plain value (no pointers): copying
// a Desc and editing the copy is how sensitivity variants are derived
// (Figure 10's +1-cycle machine, the LLC-size sweep), and value
// semantics are what keep a RunConfig carrying a Desc safe to fan out
// across workers. A zero Desc means "the default machine" (the Table 3
// westmere) everywhere one is accepted, so existing zero-value
// configurations keep their meaning.
//
// Machine descriptions parameterize the op-stream *consumers* only:
// the kernel and allocator decisions that generate a workload's op
// stream are a pure function of the benchmark and its instrumented
// layouts, never of the machine. That is the invariant that lets one
// captured trace fan out across every registered machine (see
// sim.StreamOf, the stream identity the sweep engine groups by).
package machine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cache"
	"repro/internal/cpu"
)

// Desc describes one simulated machine. The zero value is not a valid
// machine but stands for "the default" (Default()); resolve it with
// OrDefault before building hardware from it.
type Desc struct {
	// Name is the registry key ("westmere"). Derived variants keep or
	// extend the name of the machine they came from.
	Name string
	// Title is a one-line description for listings.
	Title string
	// CoreModel labels the core microarchitecture in reports (the
	// Table 3 "x86-64 Westmere-like OoO model" line).
	CoreModel string
	// Hier is the cache hierarchy: per-level geometry and latency,
	// DRAM latency, and the sensitivity knobs (ExtraL2L3,
	// SpillFillLatency).
	Hier cache.Config
	// Core is the timing-core parameterization.
	Core cpu.Config
	// Cores is the nominal core count of the machine's multicore form:
	// N private L1/L2 hierarchies sharing one L3 of the Hier.L3
	// geometry. A Mix with no explicit core-count axis runs at this
	// width; experiments that sweep widths (rate4's 1/2/4, rate8's 8)
	// choose their own and may exceed it — the machine does not cap
	// them. Single-core runs ignore it beyond validation.
	Cores int
}

// IsZero reports whether d is the zero description (the "use the
// default machine" sentinel).
func (d Desc) IsZero() bool { return d == Desc{} }

// OrDefault resolves the zero description to the registry default and
// returns any other description unchanged.
func (d Desc) OrDefault() Desc {
	if d.IsZero() {
		return Default()
	}
	return d
}

// Validate checks the description and returns a descriptive error
// before any simulation hardware is built from it: cache geometry
// (the construction-time panics of internal/cache become errors
// here), core parameters, and the multicore shape.
func (d Desc) Validate() error {
	if d.IsZero() {
		return fmt.Errorf("machine: zero description (resolve with OrDefault before validating)")
	}
	if err := d.Hier.Validate(); err != nil {
		return fmt.Errorf("machine %q: %w", d.Name, err)
	}
	if d.Core.IssueWidth < 1 {
		return fmt.Errorf("machine %q: core issue width %d, need >= 1", d.Name, d.Core.IssueWidth)
	}
	if d.Core.MSHRs < 1 {
		return fmt.Errorf("machine %q: %d MSHRs, need >= 1", d.Name, d.Core.MSHRs)
	}
	if d.Core.ROBWindow <= 0 {
		return fmt.Errorf("machine %q: ROB window %.1f cycles, need > 0", d.Name, d.Core.ROBWindow)
	}
	if d.Core.LSQDepth < 1 {
		return fmt.Errorf("machine %q: LSQ depth %d, need >= 1", d.Name, d.Core.LSQDepth)
	}
	if d.Core.ExceptionCost < 0 {
		return fmt.Errorf("machine %q: negative exception cost %.1f", d.Name, d.Core.ExceptionCost)
	}
	for lvl, c := range d.Core.StoreMissCost {
		if c < 0 {
			return fmt.Errorf("machine %q: negative store-miss cost %.2f at level %d", d.Name, c, lvl)
		}
	}
	if d.Cores < 1 {
		return fmt.Errorf("machine %q: %d cores, need >= 1", d.Name, d.Cores)
	}
	return nil
}

// WithL3Size returns a copy of d with the last-level cache resized
// (associativity and latencies unchanged) and the name extended with
// the new size, for LLC-sensitivity sweeps. The result still needs to
// pass Validate: sizes that break the geometry (not divisible into
// sets) surface there, not here.
func (d Desc) WithL3Size(bytes int) Desc {
	out := d
	out.Hier.L3.Size = bytes
	out.Name = d.Name + "-llc" + sizeLabel(bytes)
	out.Title = fmt.Sprintf("%s with a %s L3", d.Name, sizeLabel(bytes))
	return out
}

// SizeString renders a cache capacity the way Table 3 writes one:
// whole megabytes when the size divides evenly, whole kilobytes
// otherwise ("2MB", "512KB"). It is the single renderer behind the
// harness tables, the cmd listings and the derived-variant names.
func SizeString(bytes int) string {
	if bytes >= 1<<20 && bytes%(1<<20) == 0 {
		return fmt.Sprintf("%dMB", bytes>>20)
	}
	return fmt.Sprintf("%dKB", bytes>>10)
}

// sizeLabel is SizeString without the unit's B — the compact form
// used in derived machine names ("westmere-llc8M").
func sizeLabel(bytes int) string {
	return strings.TrimSuffix(SizeString(bytes), "B")
}

// registry holds machines in registration order, which is the
// canonical listing and sweep order.
var registry []Desc

// Register appends a machine to the registry. It panics on a
// duplicate or empty name and on a description that fails Validate:
// registration happens at init time, where an invalid machine is a
// programming error.
func Register(d Desc) {
	if d.Name == "" {
		panic("machine: register with empty name")
	}
	for _, x := range registry {
		if x.Name == d.Name {
			panic("machine: duplicate machine " + d.Name)
		}
	}
	if err := d.Validate(); err != nil {
		panic("machine: " + err.Error())
	}
	registry = append(registry, d)
}

// Get returns the named machine.
func Get(name string) (Desc, bool) {
	for _, d := range registry {
		if d.Name == name {
			return d, true
		}
	}
	return Desc{}, false
}

// Machines returns the registry in canonical order.
func Machines() []Desc {
	return append([]Desc(nil), registry...)
}

// Names returns the sorted registry keys (for usage messages).
func Names() []string {
	out := make([]string, len(registry))
	for i, d := range registry {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// Resolve returns the named machine, or a usage-ready error listing
// the registry when the name is unknown. It is the lookup behind the
// -machine flag of both commands.
func Resolve(name string) (Desc, error) {
	d, ok := Get(name)
	if !ok {
		return Desc{}, fmt.Errorf("unknown machine %q (have: %s)", name, strings.Join(Names(), ", "))
	}
	return d, nil
}

// Default returns the default machine: the Table 3 westmere the
// paper's entire evaluation runs on.
func Default() Desc {
	d, ok := Get("westmere")
	if !ok {
		panic("machine: default machine not registered")
	}
	return d
}

func init() {
	// westmere is the paper's evaluation machine (Table 3). Its
	// hierarchy and core are taken verbatim from cache.Westmere and
	// cpu.DefaultConfig — the single source of truth the rest of the
	// repo already reproduces against — so a zero RunConfig and an
	// explicit westmere selection are byte-identical.
	Register(Desc{
		Name:      "westmere",
		Title:     "Table 3 Westmere-like desktop at 2.27GHz (the paper's evaluation machine)",
		CoreModel: "x86-64 Westmere-like OoO model",
		Hier:      cache.Westmere(),
		Core:      cpu.DefaultConfig(),
		Cores:     4,
	})
	// skylake is a bigger-everything desktop part: a fat private L2,
	// a larger (and slower) LLC, a wider core with a deeper window.
	Register(Desc{
		Name:      "skylake",
		Title:     "Skylake-like desktop: 1MB private L2, 8MB LLC, 6-wide core",
		CoreModel: "x86-64 Skylake-like OoO model",
		Hier: cache.Config{
			L1:         cache.LevelConfig{Name: "L1D", Size: 32 << 10, Ways: 8, Latency: 4},
			L2:         cache.LevelConfig{Name: "L2", Size: 1 << 20, Ways: 16, Latency: 12},
			L3:         cache.LevelConfig{Name: "L3", Size: 8 << 20, Ways: 16, Latency: 38},
			MemLatency: 230,
		},
		Core: cpu.Config{
			IssueWidth:    6,
			MSHRs:         16,
			ROBWindow:     96,
			LSQDepth:      72,
			StoreMissCost: [5]float64{0, 0, 0.5, 1.5, 4},
			ExceptionCost: 700,
		},
		Cores: 8,
	})
	// embedded is a small-cache in-order-leaning part: half-size L1,
	// a sliver of an LLC, a narrow shallow core, low-latency DRAM
	// (cycles at a low clock).
	Register(Desc{
		Name:      "embedded",
		Title:     "embedded small-cache part: 16KB L1, 512KB LLC, 2-wide core",
		CoreModel: "embedded 2-wide core",
		Hier: cache.Config{
			L1:         cache.LevelConfig{Name: "L1D", Size: 16 << 10, Ways: 4, Latency: 2},
			L2:         cache.LevelConfig{Name: "L2", Size: 128 << 10, Ways: 4, Latency: 9},
			L3:         cache.LevelConfig{Name: "L3", Size: 512 << 10, Ways: 8, Latency: 18},
			MemLatency: 120,
		},
		Core: cpu.Config{
			IssueWidth:    2,
			MSHRs:         4,
			ROBWindow:     16,
			LSQDepth:      16,
			StoreMissCost: [5]float64{0, 0, 0.5, 1.5, 4},
			ExceptionCost: 400,
		},
		Cores: 2,
	})
	// server is a many-core part built around a large shared L3:
	// modest per-core resources, high-latency big LLC and DRAM, and
	// sixteen cores for the multiprogrammed mixes.
	Register(Desc{
		Name:      "server",
		Title:     "many-core server: 512KB L2 per core, 32MB shared L3, 16 cores",
		CoreModel: "x86-64 server-class OoO model",
		Hier: cache.Config{
			L1:         cache.LevelConfig{Name: "L1D", Size: 32 << 10, Ways: 8, Latency: 4},
			L2:         cache.LevelConfig{Name: "L2", Size: 512 << 10, Ways: 8, Latency: 11},
			L3:         cache.LevelConfig{Name: "L3", Size: 32 << 20, Ways: 16, Latency: 45},
			MemLatency: 260,
		},
		Core: cpu.Config{
			IssueWidth:    4,
			MSHRs:         12,
			ROBWindow:     64,
			LSQDepth:      48,
			StoreMissCost: [5]float64{0, 0, 0.5, 1.5, 4},
			ExceptionCost: 700,
		},
		Cores: 16,
	})
}
