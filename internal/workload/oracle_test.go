package workload

import (
	"math/rand"

	"repro/internal/compiler"
	"repro/internal/layout"
	"repro/internal/trace"
)

// runRNG is the RNG kernel, the oracle of the decision script: it
// executes `visits` object visits on env, drawing every decision from
// the spec-seeded RNG as it goes. CaptureScript must record exactly its
// draw sequence, and RunScripted must leave a machine in exactly the
// state runRNG does. It issues population stores one core call at a
// time where RunScripted batches them; batched dispatch is
// semantically identical, so the two must agree bit for bit.
func (s Spec) runRNG(env *Env, visits int) {
	r := rand.New(rand.NewSource(s.Seed ^ 0x5eed))
	core := env.Core
	// Batches flush to the env sink — the core unless a wrapper (the
	// watchdog guard) interposes; the wrapper delivers the same ops in
	// the same order, so results are unchanged.
	sink := env.SinkOrCore()

	// Populate the heap to the steady-state working set.
	type access struct {
		off  int
		size int
	}
	type obj struct {
		addr uint64
		in   *compiler.Instrumented
		offs []access // per-field offset and access size
	}
	// Accesses must stay inside field bounds: califormed layouts
	// blacklist the bytes between fields, and the workloads model
	// benign programs.
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
	// newObj allocates and initializes an object, as real programs do
	// after malloc. Initialization keeps cache warmth comparable
	// between instrumented and baseline runs.
	newObj := func() obj {
		ti := r.Intn(len(env.Ins))
		o := obj{addr: env.Heap.Alloc(env.Ins[ti]), in: env.Ins[ti], offs: fieldOffs[ti]}
		for _, a := range o.offs {
			core.Store(o.addr+uint64(a.off), a.size)
		}
		return o
	}
	objs := make([]obj, s.LiveObjects)
	for i := range objs {
		objs[i] = newObj()
	}

	core.ResetTiming()
	core.Hierarchy().ResetStats()

	churnEvery := 0
	if s.AllocPer1K > 0 {
		churnEvery = 1000 / s.AllocPer1K
	}

	// The steady-state loop emits its ops into a reusable batch and
	// hands the core whole batches instead of one call per op. The op
	// sequence is exactly the per-op one, so timing and statistics are
	// unchanged; batches are flushed before any allocator work so heap
	// churn (which drives the core directly) stays in program order.
	b := trace.NewBatch(trace.DefaultBatchCap)
	// margin is the most ops one visit can append: FieldsPerVisit
	// accesses plus their NonMem bursts, plus the chase head load.
	margin := 2*s.FieldsPerVisit + 2

	// The flat buffer models the program's non-struct memory traffic
	// (arrays, I/O buffers, stack spill space): it is never padded by
	// any insertion policy, diluting the layout-change effect exactly
	// as non-compound data does in real programs.
	structFrac := s.StructFrac
	if structFrac == 0 {
		structFrac = 1
	}
	const bufBase = uint64(0x4000_0000)
	bufBytes := uint64(s.LiveObjects) * 96
	if bufBytes < 1<<16 {
		bufBytes = 1 << 16
	}
	bufPos := uint64(0)

	// The sweep visits every object once per epoch in a fixed shuffled
	// order. Shuffling (identically seeded across baseline and
	// variant runs) avoids fragile stride-aliasing artifacts that
	// strict allocation-order sweeps exhibit near associativity
	// limits, while preserving the epoch-reuse distance that makes
	// the kernel streaming.
	order := r.Perm(len(objs))
	seq := 0
	cursor := r.Intn(len(objs))
	for v := 0; v < visits; v++ {
		if b.Len()+margin > b.Cap() {
			trace.Flush(b, sink)
		}
		if r.Float64() >= structFrac {
			// Non-struct phase: stream over the flat buffer.
			for f := 0; f < s.FieldsPerVisit; f++ {
				addr := bufBase + bufPos
				if r.Float64() < s.StoreFrac {
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
		chase := r.Float64() < s.ChaseFrac
		var o *obj
		if chase {
			// Pointer chase: pseudo-random walk whose next index
			// depends on the loaded value (modelled as a dependent
			// load at the object head).
			cursor = (cursor*1103515245 + 12345) % len(objs)
			if cursor < 0 {
				cursor += len(objs)
			}
			o = &objs[cursor]
			head := o.offs[0]
			b.Load(o.addr+uint64(head.off), head.size, true)
		} else {
			// Streaming sweep in shuffled epoch order.
			seq++
			if seq >= len(order) {
				seq = 0
			}
			o = &objs[order[seq]]
		}

		nf := s.FieldsPerVisit
		if nf > len(o.offs) {
			nf = len(o.offs)
		}
		for f := 0; f < nf; f++ {
			a := o.offs[(v+f)%len(o.offs)]
			if r.Float64() < s.StoreFrac {
				b.Store(o.addr+uint64(a.off), a.size)
			} else {
				b.Load(o.addr+uint64(a.off), a.size, false)
			}
			b.NonMem(uint32(s.ComputePerMem))
		}

		if churnEvery > 0 && v%churnEvery == 0 {
			// The allocator issues its CFORMs and hook work straight to
			// the core; drain buffered ops first to preserve program
			// order.
			trace.Flush(b, sink)
			k := r.Intn(len(objs))
			env.Heap.Free(objs[k].addr, objs[k].in)
			objs[k] = newObj()
		}
	}
	trace.Flush(b, sink)
}
