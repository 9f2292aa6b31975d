// Package compiler models the LLVM-based source-to-source pass of the
// Califorms system (§6.2): given a struct definition and an insertion
// policy it produces the califormed type layout, and for each memory
// allocation or deallocation site it computes the CFORM instructions
// (line base addresses, attribute and mask bit vectors) the
// instrumented program issues at runtime.
package compiler

import (
	"iter"

	"repro/internal/cacheline"
	"repro/internal/isa"
	"repro/internal/layout"
)

// Instrumented is the compile-time artifact for one compound type:
// the rewritten layout plus precomputed security-offset masks used to
// build CFORM operations at runtime sites.
type Instrumented struct {
	Def    layout.StructDef
	Policy layout.Policy
	Layout layout.Layout

	// secOffsets are the blacklisted byte offsets within the object.
	secOffsets []int
	// secWords is secOffsets as a bitmap (bit o of word o/64), the
	// form the per-site mask computation consumes.
	secWords []uint64
}

func secBitmap(offsets []int, size int) []uint64 {
	if len(offsets) == 0 {
		return nil
	}
	words := make([]uint64, (size+63)/64)
	for _, o := range offsets {
		words[o/64] |= 1 << uint(o%64)
	}
	return words
}

// Instrument runs the pass over one struct definition.
func Instrument(def layout.StructDef, p layout.Policy, cfg layout.PolicyConfig) *Instrumented {
	l := layout.Apply(&def, p, cfg)
	offs := l.SecurityOffsets()
	return &Instrumented{Def: def, Policy: p, Layout: l,
		secOffsets: offs, secWords: secBitmap(offs, l.Size)}
}

// InstrumentNone returns an un-instrumented baseline artifact: the
// natural layout with no security bytes.
func InstrumentNone(def layout.StructDef) *Instrumented {
	l := layout.Natural(&def)
	return &Instrumented{Def: def, Policy: layout.Policy(-1), Layout: l}
}

// Size returns the object size under the instrumented layout.
func (in *Instrumented) Size() int { return in.Layout.Size }

// SecurityOffsets returns the blacklisted offsets of the object.
func (in *Instrumented) SecurityOffsets() []int { return in.secOffsets }

// lineSpan describes the overlap of an object placed at base with one
// cache line: the line base address and the range of object offsets
// that fall in it.
type lineSpan struct {
	lineBase uint64
	lo, hi   int // object-relative offsets, hi exclusive
}

// lineSpans yields the spans of an object of size bytes placed at
// base, one per cache line it touches, in address order.
func lineSpans(base uint64, size int) iter.Seq[lineSpan] {
	return func(yield func(lineSpan) bool) {
		for off := 0; off < size; {
			addr := base + uint64(off)
			n := cacheline.Size - int(addr&uint64(cacheline.Size-1))
			if n > size-off {
				n = size - off
			}
			if !yield(lineSpan{lineBase: addr &^ uint64(cacheline.Size-1), lo: off, hi: off + n}) {
				return
			}
			off += n
		}
	}
}

// maskFor builds the per-line bit vectors for the object placed at
// base: dataMask covers the object's non-security bytes in the line,
// secMask its security bytes. Both are assembled with whole-word bit
// extraction from the precomputed security bitmap — no per-byte loop.
func (in *Instrumented) maskFor(sp lineSpan, base uint64) (dataMask, secMask uint64) {
	shift := uint((base + uint64(sp.lo)) & uint64(cacheline.Size-1))
	n := sp.hi - sp.lo
	var objMask uint64
	if int(shift)+n >= 64 {
		objMask = ^uint64(0) << shift
	} else {
		objMask = (uint64(1)<<uint(n) - 1) << shift
	}
	secMask = extractBits(in.secWords, sp.lo, n) << shift
	return objMask &^ secMask, secMask
}

// extractBits returns the n bits of the bitmap starting at offset
// start, bit k of the result holding bit start+k (n <= 64).
func extractBits(words []uint64, start, n int) uint64 {
	if len(words) == 0 {
		return 0
	}
	w, b := start/64, uint(start%64)
	var v uint64
	if w < len(words) {
		v = words[w] >> b
	}
	if b != 0 && w+1 < len(words) {
		v |= words[w+1] << (64 - b)
	}
	if n < 64 {
		v &= uint64(1)<<uint(n) - 1
	}
	return v
}

// The site-op builders below append their CFORMs to dst and return
// the extended slice, so an allocator can build every site's ops into
// one reused buffer.

// AllocOps appends the CFORM instructions a clean-before-use heap
// issues when the object is allocated at base (§6.1): free memory is
// fully califormed, so allocation *unsets* the security state of the
// object's legitimate data bytes, leaving intra-object security bytes
// (and everything outside the object) blacklisted.
func (in *Instrumented) AllocOps(dst []isa.CFORM, base uint64) []isa.CFORM {
	for sp := range lineSpans(base, in.Layout.Size) {
		if dataMask, _ := in.maskFor(sp, base); dataMask != 0 {
			dst = append(dst, isa.CFORM{Base: sp.lineBase, Attrs: 0, Mask: dataMask})
		}
	}
	return dst
}

// FreeOps appends the CFORM instructions issued on deallocation under
// clean-before-use: every data byte of the object returns to the
// security state (and is zeroed by the hardware, §7.2), providing
// temporal safety for the freed region. Set nonTemporal to use the
// streaming CFORM variant that bypasses the L1 (§6.1 footnote).
func (in *Instrumented) FreeOps(dst []isa.CFORM, base uint64, nonTemporal bool) []isa.CFORM {
	for sp := range lineSpans(base, in.Layout.Size) {
		if dataMask, _ := in.maskFor(sp, base); dataMask != 0 {
			dst = append(dst, isa.CFORM{Base: sp.lineBase, Attrs: dataMask, Mask: dataMask, NonTemporal: nonTemporal})
		}
	}
	return dst
}

// FrameEnterOps appends the CFORM instructions for a dirty-before-use
// stack frame (§6.1): stack memory is normally un-califormed, so on
// function entry only the intra-object security bytes are set.
func (in *Instrumented) FrameEnterOps(dst []isa.CFORM, base uint64) []isa.CFORM {
	for sp := range lineSpans(base, in.Layout.Size) {
		if _, secMask := in.maskFor(sp, base); secMask != 0 {
			dst = append(dst, isa.CFORM{Base: sp.lineBase, Attrs: secMask, Mask: secMask})
		}
	}
	return dst
}

// FrameExitOps appends the ops that undo FrameEnterOps on function
// return.
func (in *Instrumented) FrameExitOps(dst []isa.CFORM, base uint64) []isa.CFORM {
	return clearAttrs(in.FrameEnterOps(dst, base), len(dst))
}

// clearAttrs turns the set ops appended after ops[:from] into the
// matching unset ops.
func clearAttrs(ops []isa.CFORM, from int) []isa.CFORM {
	for i := from; i < len(ops); i++ {
		ops[i].Attrs = 0
	}
	return ops
}

// HookOps appends the allocation-site CFORMs under the paper's
// measured accounting (§8.2): the opportunistic policy califorms
// every compound-type allocation — one CFORM (emulated by one dummy
// store) per cache line the object spans, even when a line carries no
// security byte, because the hook cannot know without doing the work.
// The full and intelligent policies instrument only types that carry
// security bytes, so lines without any are skipped and scalar-only
// types cost nothing.
func (in *Instrumented) HookOps(dst []isa.CFORM, base uint64) []isa.CFORM {
	if in.Policy == layout.Opportunistic {
		for sp := range lineSpans(base, in.Layout.Size) {
			_, secMask := in.maskFor(sp, base)
			dst = append(dst, isa.CFORM{Base: sp.lineBase, Attrs: secMask, Mask: secMask})
		}
		return dst
	}
	return in.FrameEnterOps(dst, base)
}

// HookExitOps mirrors HookOps for deallocation sites.
func (in *Instrumented) HookExitOps(dst []isa.CFORM, base uint64) []isa.CFORM {
	return clearAttrs(in.HookOps(dst, base), len(dst))
}

// CaliformRegionOps appends the ops that blacklist an entire raw
// region (used by the heap when fresh pages enter the clean-before-use
// pool, and by REST-style inter-object redzones). The region must be
// line-aligned in base and a multiple of the line size.
func CaliformRegionOps(dst []isa.CFORM, base uint64, size int) []isa.CFORM {
	for off := 0; off < size; off += cacheline.Size {
		dst = append(dst, isa.CFORM{Base: base + uint64(off), Attrs: ^uint64(0), Mask: ^uint64(0)})
	}
	return dst
}

// LinesTouched returns how many cache lines an object at base spans;
// the software overhead of califorming is one CFORM (emulated in the
// paper by one dummy store) per touched line.
func (in *Instrumented) LinesTouched(base uint64) int {
	n := 0
	for range lineSpans(base, in.Layout.Size) {
		n++
	}
	return n
}
