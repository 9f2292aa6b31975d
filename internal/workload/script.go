package workload

import (
	"math/rand"

	"repro/internal/layout"
	"repro/internal/trace"
)

// Script is the captured decision stream of one (Spec, visits) kernel
// run: every random choice the kernel makes — object types at
// allocation, flat-buffer phases, pointer-chase targets, sweep order,
// store/load selection, churn victims — resolved into compact columnar
// arrays.
//
// The decision stream is configuration-independent by construction:
// the kernel's RNG consumption depends only on the Spec (type shapes,
// fractions, counts) and never on the layout policy, pad sizes, heap
// protocol or machine configuration of the run. Every cell of a
// benchmark×config×seed sweep therefore shares one Script, captured
// once per benchmark, and replays it against its own instrumented
// layouts and machine (Spec.RunScripted). The concrete op stream —
// addresses, CFORM masks — still differs per configuration wherever
// layouts differ; cells whose full op stream coincides are deduplicated
// one level up by the harness's trace.Recording capture/replay.
//
// A Script is immutable after capture and safe for concurrent replay.
type Script struct {
	// Visits is the captured steady-state length.
	Visits int
	// PopTypes is the type index of each initially allocated object
	// (LiveObjects entries).
	PopTypes []uint8
	// Flags holds per-visit decision bits (visitFlat, visitChase).
	Flags []uint8
	// StoreBits holds, per visit, one bit per touched field: set means
	// the access is a store. Flat visits use bit 0..FieldsPerVisit-1;
	// struct visits bit 0..nf-1.
	StoreBits []uint8
	// ObjIdx is the visited object slot for each non-flat visit, in
	// visit order.
	ObjIdx []uint32
	// ChurnVictim and ChurnType are the freed slot and the replacement
	// object's type for each churn event, in event order.
	ChurnVictim []uint32
	ChurnType   []uint8
}

const (
	visitFlat  = 1 << 0
	visitChase = 1 << 1
)

// effFieldCounts returns, per kernel type, the number of per-object
// access slots the kernel touches: one per struct field (every layout
// policy emits exactly one field span per field, so the count is
// layout-independent), with the kernel's one-slot fallback for
// fieldless types.
func (s Spec) effFieldCounts() []uint8 {
	defs := s.Types()
	eff := make([]uint8, len(defs))
	for i, d := range defs {
		n := len(d.Fields)
		if n == 0 {
			n = 1
		}
		eff[i] = uint8(n)
	}
	return eff
}

// CaptureScript resolves the kernel's full decision stream for the
// given visit count without touching a simulated machine: it performs
// the kernel's RNG draw sequence (the package tests keep the RNG
// kernel as its oracle) and records each outcome. The capture is cheap
// (no cache or core work) and runs once per benchmark per sweep.
func (s Spec) CaptureScript(visits int) *Script {
	eff := s.effFieldCounts()
	nTypes := len(eff)
	r := rand.New(rand.NewSource(s.Seed ^ 0x5eed))

	sc := &Script{
		Visits:    visits,
		PopTypes:  make([]uint8, s.LiveObjects),
		Flags:     make([]uint8, visits),
		StoreBits: make([]uint8, visits),
	}
	// objTypes mirrors the kernel's live-object table, tracking only
	// the type of each slot (addresses are per-configuration).
	objTypes := make([]uint8, s.LiveObjects)
	for i := range sc.PopTypes {
		t := uint8(r.Intn(nTypes))
		sc.PopTypes[i] = t
		objTypes[i] = t
	}

	churnEvery := 0
	if s.AllocPer1K > 0 {
		churnEvery = 1000 / s.AllocPer1K
	}
	structFrac := s.StructFrac
	if structFrac == 0 {
		structFrac = 1
	}

	order := r.Perm(len(objTypes))
	seq := 0
	cursor := r.Intn(len(objTypes))
	for v := 0; v < visits; v++ {
		if r.Float64() >= structFrac {
			sc.Flags[v] = visitFlat
			var bits uint8
			for f := 0; f < s.FieldsPerVisit; f++ {
				if r.Float64() < s.StoreFrac {
					bits |= 1 << uint(f)
				}
			}
			sc.StoreBits[v] = bits
			continue
		}
		var oi int
		if r.Float64() < s.ChaseFrac {
			sc.Flags[v] = visitChase
			cursor = (cursor*1103515245 + 12345) % len(objTypes)
			if cursor < 0 {
				cursor += len(objTypes)
			}
			oi = cursor
		} else {
			seq++
			if seq >= len(order) {
				seq = 0
			}
			oi = order[seq]
		}
		sc.ObjIdx = append(sc.ObjIdx, uint32(oi))

		nf := s.FieldsPerVisit
		if eo := int(eff[objTypes[oi]]); nf > eo {
			nf = eo
		}
		var bits uint8
		for f := 0; f < nf; f++ {
			if r.Float64() < s.StoreFrac {
				bits |= 1 << uint(f)
			}
		}
		sc.StoreBits[v] = bits

		if churnEvery > 0 && v%churnEvery == 0 {
			k := r.Intn(len(objTypes))
			t := uint8(r.Intn(nTypes))
			sc.ChurnVictim = append(sc.ChurnVictim, uint32(k))
			sc.ChurnType = append(sc.ChurnType, t)
			objTypes[k] = t
		}
	}
	return sc
}

// RunScripted executes the kernel on env, taking every decision from
// the captured script instead of drawing it, so the per-visit RNG
// work, the epoch shuffle and the object bookkeeping are paid once at
// capture instead of once per configuration. Timing and cache
// statistics reset after the heap is populated: only the steady-state
// region is measured (the paper's SimPoint methodology).
func (s Spec) RunScripted(env *Env, sc *Script) {
	core := env.Core
	sink := env.SinkOrCore()

	type access struct {
		off  int
		size int
	}
	// obj is kept pointer-free and 16 bytes: the live-object table is
	// the scripted runner's biggest allocation (hundreds of thousands
	// of entries for the large benchmarks), so its zeroing cost and GC
	// scan footprint matter. Type-dependent state (field offsets, the
	// instrumented layout for Free) is reached through ti instead.
	type obj struct {
		addr uint64
		ti   uint32
	}
	fieldOffs := make([][]access, len(env.Ins))
	for i, in := range env.Ins {
		var offs []access
		for _, sp := range in.Layout.Spans {
			if sp.Kind == layout.SpanField {
				sz := sp.Size
				if sz > 8 {
					sz = 8
				}
				offs = append(offs, access{off: sp.Offset, size: sz})
			}
		}
		if len(offs) == 0 {
			offs = []access{{off: 0, size: 1}}
		}
		fieldOffs[i] = offs
	}

	b := trace.NewBatch(trace.DefaultBatchCap)
	margin := 2*s.FieldsPerVisit + 2

	// newObj allocates and initializes one object of the scripted
	// type. The batch is flushed first so the allocator's own ops stay
	// in program order; the init stores are buffered.
	newObj := func(ti int) obj {
		trace.Flush(b, sink)
		o := obj{addr: env.Heap.Alloc(env.Ins[ti]), ti: uint32(ti)}
		for _, a := range fieldOffs[ti] {
			if b.Len()+1 > b.Cap() {
				trace.Flush(b, sink)
			}
			b.Store(o.addr+uint64(a.off), a.size)
		}
		return o
	}
	objs := make([]obj, s.LiveObjects)
	for i, t := range sc.PopTypes {
		objs[i] = newObj(int(t))
	}
	trace.Flush(b, sink)

	core.ResetTiming()
	core.Hierarchy().ResetStats()
	if env.ResetHook != nil {
		env.ResetHook()
	}

	churnEvery := 0
	if s.AllocPer1K > 0 {
		churnEvery = 1000 / s.AllocPer1K
	}

	const bufBase = uint64(0x4000_0000)
	bufBytes := uint64(s.LiveObjects) * 96
	if bufBytes < 1<<16 {
		bufBytes = 1 << 16
	}
	bufPos := uint64(0)

	oix := 0 // cursor into sc.ObjIdx
	cix := 0 // cursor into sc.ChurnVictim/ChurnType
	for v := 0; v < sc.Visits; v++ {
		if b.Len()+margin > b.Cap() {
			trace.Flush(b, sink)
		}
		flags := sc.Flags[v]
		bits := sc.StoreBits[v]
		if flags&visitFlat != 0 {
			for f := 0; f < s.FieldsPerVisit; f++ {
				addr := bufBase + bufPos
				if bits&(1<<uint(f)) != 0 {
					b.Store(addr, 8)
				} else {
					b.Load(addr, 8, false)
				}
				b.NonMem(uint32(s.ComputePerMem))
				bufPos += 32
				if bufPos >= bufBytes {
					bufPos = 0
				}
			}
			continue
		}
		o := &objs[sc.ObjIdx[oix]]
		offs := fieldOffs[o.ti]
		oix++
		if flags&visitChase != 0 {
			head := offs[0]
			b.Load(o.addr+uint64(head.off), head.size, true)
		}

		nf := s.FieldsPerVisit
		if nf > len(offs) {
			nf = len(offs)
		}
		for f := 0; f < nf; f++ {
			a := offs[(v+f)%len(offs)]
			if bits&(1<<uint(f)) != 0 {
				b.Store(o.addr+uint64(a.off), a.size)
			} else {
				b.Load(o.addr+uint64(a.off), a.size, false)
			}
			b.NonMem(uint32(s.ComputePerMem))
		}

		if churnEvery > 0 && v%churnEvery == 0 {
			trace.Flush(b, sink)
			k := int(sc.ChurnVictim[cix])
			env.Heap.Free(objs[k].addr, env.Ins[objs[k].ti])
			objs[k] = newObj(int(sc.ChurnType[cix]))
			cix++
		}
	}
	trace.Flush(b, sink)
}
