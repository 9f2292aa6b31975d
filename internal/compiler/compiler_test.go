package compiler

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/mem"
)

func structA() layout.StructDef {
	return layout.StructDef{Name: "A", Fields: []layout.Field{
		{Name: "c", Kind: layout.Char},
		{Name: "i", Kind: layout.Int},
		{Name: "buf", Kind: layout.Char, ArrayLen: 64},
		{Name: "fp", Kind: layout.FuncPtr},
		{Name: "d", Kind: layout.Double},
	}}
}

func TestInstrumentOpportunistic(t *testing.T) {
	in := Instrument(structA(), layout.Opportunistic, layout.PolicyConfig{})
	if in.Size() != 88 {
		t.Fatalf("opportunistic must keep natural size, got %d", in.Size())
	}
	if got := len(in.SecurityOffsets()); got != 3 {
		t.Fatalf("security offsets = %d, want 3 (harvested padding)", got)
	}
}

func TestAllocFreeOpsRoundTripOnHardware(t *testing.T) {
	// End-to-end over the cache model: caliform a fresh region, then
	// run the alloc ops (unset data bytes), verify accessibility
	// matches the layout, then free ops restore full blacklisting.
	h := cache.New(cache.Westmere(), mem.New())
	r := rand.New(rand.NewSource(1))
	in := Instrument(structA(), layout.Full, layout.PolicyConfig{MinPad: 1, MaxPad: 7, Rand: r})

	base := uint64(0x10000) + 16 // deliberately not line aligned
	regionStart := base &^ 63
	regionSize := ((int(base) + in.Size() + 63) &^ 63) - int(regionStart)
	for _, op := range CaliformRegionOps(nil, regionStart, regionSize) {
		if res := h.CForm(op); res.Exc != nil {
			t.Fatal(res.Exc)
		}
	}

	for _, op := range in.AllocOps(nil, base) {
		if res := h.CForm(op); res.Exc != nil {
			t.Fatalf("alloc op: %v", res.Exc)
		}
	}

	secSet := map[int]bool{}
	for _, o := range in.SecurityOffsets() {
		secSet[o] = true
	}
	for off := 0; off < in.Size(); off++ {
		_, res := h.Load(base+uint64(off), 1)
		if secSet[off] && res.Exc == nil {
			t.Fatalf("offset %d: security byte readable", off)
		}
		if !secSet[off] && res.Exc != nil {
			t.Fatalf("offset %d: data byte blacklisted: %v", off, res.Exc)
		}
	}

	// Bytes outside the object (redzone slack in the region) must
	// still be blacklisted: inter-object safety.
	if int(base)+in.Size() < int(regionStart)+regionSize {
		if _, res := h.Load(base+uint64(in.Size()), 1); res.Exc == nil {
			t.Fatal("byte past the object must remain blacklisted")
		}
	}
	if _, res := h.Load(base-1, 1); res.Exc == nil {
		t.Fatal("byte before the object must remain blacklisted")
	}

	for _, op := range in.FreeOps(nil, base, false) {
		if res := h.CForm(op); res.Exc != nil {
			t.Fatalf("free op: %v", res.Exc)
		}
	}
	for off := 0; off < in.Size(); off++ {
		if !secSet[off] {
			if _, res := h.Load(base+uint64(off), 1); res.Exc == nil {
				t.Fatalf("offset %d readable after free (temporal safety broken)", off)
			}
		}
	}
}

func TestFrameOpsStack(t *testing.T) {
	h := cache.New(cache.Westmere(), mem.New())
	r := rand.New(rand.NewSource(2))
	in := Instrument(structA(), layout.Intelligent, layout.PolicyConfig{MinPad: 1, MaxPad: 3, Rand: r})

	base := uint64(0x7f000000)
	for _, op := range in.FrameEnterOps(nil, base) {
		if res := h.CForm(op); res.Exc != nil {
			t.Fatal(res.Exc)
		}
	}
	secs := in.SecurityOffsets()
	if len(secs) == 0 {
		t.Fatal("intelligent layout of struct A must have security bytes")
	}
	if _, res := h.Load(base+uint64(secs[0]), 1); res.Exc == nil {
		t.Fatal("stack security byte not set")
	}
	for _, op := range in.FrameExitOps(nil, base) {
		if res := h.CForm(op); res.Exc != nil {
			t.Fatal(res.Exc)
		}
	}
	if _, res := h.Load(base+uint64(secs[0]), 1); res.Exc != nil {
		t.Fatal("stack security byte not cleared on frame exit")
	}

	// Appending keeps the destination's ops: exit ops built after the
	// entry ops clear only their own attributes.
	enter := in.FrameEnterOps(nil, base)
	both := in.FrameExitOps(in.FrameEnterOps(nil, base), base)
	if len(both) != 2*len(enter) {
		t.Fatalf("enter+exit = %d ops, want %d", len(both), 2*len(enter))
	}
	for i, op := range enter {
		exit := op
		exit.Attrs = 0
		if both[i] != op || both[len(enter)+i] != exit {
			t.Fatalf("op %d: got %+v then %+v, want %+v then %+v", i, both[i], both[len(enter)+i], op, exit)
		}
	}
}

func TestLineSpansCoverage(t *testing.T) {
	in := Instrument(structA(), layout.Opportunistic, layout.PolicyConfig{})
	for _, base := range []uint64{0, 16, 48, 63, 64, 100} {
		covered, spans := 0, 0
		for sp := range lineSpans(base, in.Size()) {
			if sp.lo != covered {
				t.Fatalf("base %d: span %d starts at offset %d, want %d", base, spans, sp.lo, covered)
			}
			covered += sp.hi - sp.lo
			if sp.lineBase&63 != 0 {
				t.Fatalf("span %d base %#x not aligned", spans, sp.lineBase)
			}
			spans++
		}
		if covered != in.Size() {
			t.Fatalf("base %d: covered %d of %d", base, covered, in.Size())
		}
		if got := in.LinesTouched(base); got != spans {
			t.Fatalf("LinesTouched=%d, want %d", got, spans)
		}
	}
}

func TestAllocOpsMasksDisjointFromSecurity(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	defs := layout.SPECProfile().Generate(100, 11)
	for i := range defs {
		in := Instrument(defs[i], layout.Full, layout.PolicyConfig{MinPad: 1, MaxPad: 7, Rand: r})
		base := uint64(0x4000) + uint64(i*8)
		alloc := in.AllocOps(nil, base)
		free := in.FreeOps(nil, base, false)
		if len(alloc) != len(free) {
			t.Fatal("alloc/free op counts must match")
		}
		for j, op := range alloc {
			if op.Attrs != 0 {
				t.Fatal("alloc ops unset, so attrs must be 0")
			}
			if free[j].Attrs != free[j].Mask {
				t.Fatal("free ops set every masked byte")
			}
			if op.Base != free[j].Base || op.Mask != free[j].Mask {
				t.Fatal("alloc/free ops must mirror")
			}
			// The data mask must not include any security offset.
			for _, o := range in.SecurityOffsets() {
				a := base + uint64(o)
				if a >= op.Base && a < op.Base+64 {
					if op.Mask&(1<<(a-op.Base)) != 0 {
						t.Fatalf("struct %d: alloc mask touches security offset %d", i, o)
					}
				}
			}
		}
	}
}

func TestInstrumentNoneBaseline(t *testing.T) {
	in := InstrumentNone(structA())
	if len(in.SecurityOffsets()) != 0 {
		t.Fatal("baseline must have no security bytes")
	}
	if len(in.AllocOps(nil, 0x1000)) != 2 {
		// 88B at line-aligned base touches 2 lines; all-data masks.
		t.Fatalf("alloc ops = %d", len(in.AllocOps(nil, 0x1000)))
	}
}

// TestSiteOpsIntoWarmBufferAllocateNothing pins the allocation
// contract of the site-op builders: once the destination buffer has
// grown to a site's size, building a califormed type's ops into it
// allocates nothing, under every policy and builder.
func TestSiteOpsIntoWarmBufferAllocateNothing(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, p := range []layout.Policy{layout.Opportunistic, layout.Full, layout.Intelligent} {
		in := Instrument(structA(), p, layout.PolicyConfig{MinPad: 1, MaxPad: 7, Rand: r})
		if len(in.SecurityOffsets()) == 0 {
			t.Fatalf("policy %v: struct A must carry security bytes", p)
		}
		var buf []isa.CFORM
		build := func() {
			for _, base := range []uint64{0x1000, 0x1010, 0x103c} {
				buf = in.AllocOps(buf[:0], base)
				buf = in.FreeOps(buf, base, true)
				buf = in.HookOps(buf, base)
				buf = in.HookExitOps(buf, base)
				buf = in.FrameEnterOps(buf, base)
				buf = in.FrameExitOps(buf, base)
				buf = CaliformRegionOps(buf, base&^63, 256)
			}
		}
		build()
		if len(buf) == 0 {
			t.Fatalf("policy %v: no ops built", p)
		}
		if allocs := testing.AllocsPerRun(20, build); allocs != 0 {
			t.Fatalf("policy %v: building site ops into a warm buffer allocates %.1f times", p, allocs)
		}
	}
}
