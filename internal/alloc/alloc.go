// Package alloc implements the Califorms memory allocator (§6.1): a
// clean-before-use heap in which unallocated memory remains entirely
// blacklisted, allocation unsets the security state of the object's
// data bytes, deallocation re-blacklists and zeroes them, and freed
// regions are quarantined for temporal safety; plus a dirty-before-use
// stack that sets security bytes on frame entry and clears them on
// exit.
//
// The allocator drives a trace.Sink (typically the timing core), so
// all of its work — size-class bookkeeping, mask computation, and the
// CFORM instructions themselves — is charged to the simulated program
// exactly as the paper's dummy-store emulation does (§8.2).
package alloc

import (
	"fmt"

	"repro/internal/cacheline"
	"repro/internal/compiler"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Protocol selects how the heap maintains security state (§6.1).
type Protocol int

const (
	// ProtocolClean is the design-faithful clean-before-use protocol:
	// unallocated memory remains entirely blacklisted; allocation
	// unsets the object's data bytes, deallocation re-blacklists and
	// zeroes them. Strongest guarantees (inter-object redzones plus
	// temporal safety) but pays CFORM work on every allocation.
	ProtocolClean Protocol = iota
	// ProtocolDirty sets only the object's intra-object security
	// bytes on allocation and clears them on free. Objects of types
	// with no security bytes cost nothing, matching the accounting of
	// the paper's dummy-store emulation ("one dummy store per
	// to-be-califormed cache line", §8.2). Temporal safety is limited
	// to quarantining.
	ProtocolDirty
)

// Config parameterizes the heap.
type Config struct {
	// Protocol selects clean-before-use (default) or dirty-before-use
	// security-state maintenance.
	Protocol Protocol
	// Base is the starting virtual address of the heap (line aligned).
	Base uint64
	// ChunkSize is the sbrk growth unit in bytes (line aligned).
	ChunkSize int
	// QuarantineFrac is the fraction of the total heap kept in
	// quarantine before freed regions become reusable. The paper
	// quarantines freed regions "until the heap is sufficiently
	// consumed".
	QuarantineFrac float64
	// UseCForm enables issuing CFORM instructions (and their setup
	// work). The "without CFORM" configurations of Figures 11 and 12
	// disable it: layouts still change but no instrumentation runs.
	UseCForm bool
	// NonTemporalFree uses the streaming CFORM variant on free, so
	// deallocated lines do not pollute the L1 (§6.1 footnote).
	NonTemporalFree bool
	// AllocSiteCost and PerLineCost are the instruction-count charges
	// for the allocator hook (type lookup, size computation) and the
	// per-line mask computation, modelling the LLVM instrumentation
	// the paper measures. UnprotectedHookCost is the short-circuit
	// cost when the type has nothing to caliform.
	AllocSiteCost       uint32
	PerLineCost         uint32
	UnprotectedHookCost uint32
}

// DefaultConfig returns a heap configuration matching the evaluation
// setup.
func DefaultConfig() Config {
	return Config{
		Base:                0x1000_0000,
		ChunkSize:           64 << 10,
		QuarantineFrac:      0.25,
		UseCForm:            true,
		AllocSiteCost:       250,
		PerLineCost:         40,
		UnprotectedHookCost: 40,
	}
}

// Stats aggregates allocator activity.
type Stats struct {
	Allocs          uint64
	Frees           uint64
	CFormsIssued    uint64
	BytesAllocated  uint64
	QuarantinedNow  uint64
	QuarantineFlush uint64
	HeapBytes       uint64
}

type region struct {
	addr uint64
	size int
}

// Heap is the clean-before-use califorms heap.
type Heap struct {
	cfg  Config
	sink trace.Sink
	brk  uint64
	end  uint64
	// free holds reusable regions by size class (16-byte granules).
	free map[int][]uint64
	// quarantine holds freed-but-not-yet-reusable regions (FIFO).
	quarantine []region
	quarBytes  uint64
	// ops is the scratch buffer every site builds its CFORMs into.
	ops   []isa.CFORM
	Stats Stats
}

// New creates a heap issuing its work to sink.
func New(cfg Config, sink trace.Sink) *Heap {
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = 64 << 10
	}
	if cfg.Base%cacheline.Size != 0 {
		panic("alloc: heap base must be line aligned")
	}
	return &Heap{
		cfg:  cfg,
		sink: sink,
		brk:  cfg.Base,
		end:  cfg.Base,
		free: make(map[int][]uint64),
	}
}

// sizeClass rounds a byte size up to a 16-byte granule.
func sizeClass(n int) int {
	if n <= 0 {
		n = 1
	}
	return (n + 15) &^ 15
}

// grow extends the heap by at least n bytes. Under clean-before-use
// the fresh chunk is immediately blacklisted wholesale.
func (h *Heap) grow(n int) {
	chunk := h.cfg.ChunkSize
	for chunk < n {
		chunk *= 2
	}
	start := h.end
	h.end += uint64(chunk)
	h.Stats.HeapBytes += uint64(chunk)
	if h.cfg.UseCForm && h.cfg.Protocol == ProtocolClean {
		h.ops = compiler.CaliformRegionOps(h.ops[:0], start, chunk)
		h.sink.NonMem(h.cfg.PerLineCost * uint32(len(h.ops)))
		for _, op := range h.ops {
			h.sink.CForm(op)
			h.Stats.CFormsIssued++
		}
	}
}

// carve returns a region of the given size class, reusing released
// free-list entries before extending the heap.
func (h *Heap) carve(class int) uint64 {
	if lst := h.free[class]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		h.free[class] = lst[:len(lst)-1]
		return addr
	}
	if h.brk+uint64(class) > h.end {
		h.grow(class)
	}
	addr := h.brk
	h.brk += uint64(class)
	return addr
}

// Alloc allocates one instance of the instrumented type and issues
// the clean-before-use CFORMs for its data bytes. The returned
// address is 16-byte aligned. Size-class slack beyond the object
// remains blacklisted, forming a REST-style inter-object redzone.
func (h *Heap) Alloc(in *compiler.Instrumented) uint64 {
	h.Stats.Allocs++
	h.Stats.BytesAllocated += uint64(in.Size())

	addr := h.carve(sizeClass(in.Size()))
	if h.cfg.UseCForm {
		h.ops = h.allocOps(h.ops[:0], addr, in)
		h.issueSiteOps(h.ops)
	}
	return addr
}

// allocOps appends the CFORMs for an allocation under the configured
// protocol.
func (h *Heap) allocOps(dst []isa.CFORM, addr uint64, in *compiler.Instrumented) []isa.CFORM {
	if h.cfg.Protocol == ProtocolClean {
		return in.AllocOps(dst, addr)
	}
	return in.HookOps(dst, addr)
}

// freeOps appends the CFORMs for a deallocation under the configured
// protocol.
func (h *Heap) freeOps(dst []isa.CFORM, addr uint64, in *compiler.Instrumented) []isa.CFORM {
	if h.cfg.Protocol == ProtocolClean {
		return in.FreeOps(dst, addr, h.cfg.NonTemporalFree)
	}
	ops := in.HookExitOps(dst, addr)
	if h.cfg.NonTemporalFree {
		for i := len(dst); i < len(ops); i++ {
			ops[i].NonTemporal = true
		}
	}
	return ops
}

// issueSiteOps charges the allocator-hook work and emits the CFORMs.
// Types with nothing to caliform exit the hook early (the compiler
// emits no instrumentation for them under dirty-before-use).
func (h *Heap) issueSiteOps(ops []isa.CFORM) {
	if len(ops) == 0 {
		h.sink.NonMem(h.cfg.UnprotectedHookCost)
		return
	}
	h.sink.NonMem(h.cfg.AllocSiteCost + h.cfg.PerLineCost*uint32(len(ops)))
	for _, op := range ops {
		h.sink.CForm(op)
		h.Stats.CFormsIssued++
	}
}

// Free deallocates an instance previously returned by Alloc for the
// same instrumented type: data bytes are re-blacklisted (and zeroed
// by the CFORM hardware), and the region is quarantined.
func (h *Heap) Free(addr uint64, in *compiler.Instrumented) {
	h.Stats.Frees++
	if h.cfg.UseCForm {
		h.ops = h.freeOps(h.ops[:0], addr, in)
		h.issueSiteOps(h.ops)
	}
	class := sizeClass(in.Size())
	h.quarantine = append(h.quarantine, region{addr: addr, size: class})
	h.quarBytes += uint64(class)
	h.Stats.QuarantinedNow = h.quarBytes
	h.drainQuarantine()
}

// drainQuarantine releases the oldest quarantined regions once the
// quarantine exceeds its budget, making them reusable.
func (h *Heap) drainQuarantine() {
	budget := uint64(h.cfg.QuarantineFrac * float64(h.Stats.HeapBytes))
	for h.quarBytes > budget && len(h.quarantine) > 0 {
		r := h.quarantine[0]
		h.quarantine = h.quarantine[1:]
		h.quarBytes -= uint64(r.size)
		h.free[r.size] = append(h.free[r.size], r.addr)
		h.Stats.QuarantineFlush++
	}
	h.Stats.QuarantinedNow = h.quarBytes
}

// Footprint returns the total heap bytes reserved so far.
func (h *Heap) Footprint() uint64 { return h.Stats.HeapBytes }

// Stack is the dirty-before-use stack allocator (§6.1): stack memory
// is normal by default; frames containing protected objects set their
// security bytes on entry and clear them on return.
type Stack struct {
	sink trace.Sink
	base uint64
	sp   uint64
	cfg  Config
	// ops is the scratch buffer every frame builds its CFORMs into.
	ops   []isa.CFORM
	Stats Stats
}

// NewStack creates a downward-growing stack starting at top.
func NewStack(cfg Config, sink trace.Sink, top uint64) *Stack {
	if top%cacheline.Size != 0 {
		panic("alloc: stack top must be line aligned")
	}
	return &Stack{sink: sink, base: top, sp: top, cfg: cfg}
}

// Frame is a live stack allocation.
type Frame struct {
	Base uint64
	in   *compiler.Instrumented
}

// PushFrame allocates a frame for one instance of the instrumented
// type and sets its security bytes (dirty-before-use).
func (s *Stack) PushFrame(in *compiler.Instrumented) Frame {
	size := uint64(sizeClass(in.Size()))
	s.sp -= size
	s.Stats.Allocs++
	if s.cfg.UseCForm {
		s.ops = in.FrameEnterOps(s.ops[:0], s.sp)
		s.issue(s.ops)
	}
	return Frame{Base: s.sp, in: in}
}

// PopFrame releases the most recent frame, clearing its security
// bytes. Frames must pop in LIFO order.
func (s *Stack) PopFrame(f Frame) {
	if f.Base != s.sp {
		panic(fmt.Sprintf("alloc: non-LIFO frame pop: %#x != sp %#x", f.Base, s.sp))
	}
	if s.cfg.UseCForm {
		s.ops = f.in.FrameExitOps(s.ops[:0], f.Base)
		s.issue(s.ops)
	}
	s.sp += uint64(sizeClass(f.in.Size()))
	s.Stats.Frees++
}

// issue charges the per-line work and emits a frame's CFORMs.
func (s *Stack) issue(ops []isa.CFORM) {
	s.sink.NonMem(s.cfg.PerLineCost * uint32(len(ops)))
	for _, op := range ops {
		s.sink.CForm(op)
		s.Stats.CFormsIssued++
	}
}
