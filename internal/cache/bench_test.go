package cache

import (
	"testing"

	"repro/internal/cacheline"
	"repro/internal/isa"
	"repro/internal/mem"
)

// TestTouchPathZeroAllocs pins the allocation contract of the timing
// access path: LoadTouch and StoreTouch never allocate, whether they
// hit in L1 or stream through every level to DRAM, and with
// califormed lines crossing the L1 boundary and cycling through DRAM
// and back. Once warm, DRAM holds a page for every line the run
// touches, so its mask form allocates nothing either.
func TestTouchPathZeroAllocs(t *testing.T) {
	h := New(Westmere(), mem.New())
	// Caliform lines so spills and fills carry masks, not just the
	// zero line: the first 64 in a region that fits in L1/L2, and
	// every line of a streamed region twice the size of the L3.
	const streamLines = 2 * (2 << 20) / 64
	caliform := func(addr uint64) {
		if res := h.CForm(isa.CFORM{Base: addr, Attrs: 0xFF00, Mask: 0xFF00}); res.Exc != nil {
			t.Fatalf("CForm setup: %v", res.Exc)
		}
	}
	for i := 0; i < 64; i++ {
		caliform(0x2000_0000 + uint64(i)*64)
	}
	for i := 0; i < streamLines; i++ {
		caliform(0x4000_0000 + uint64(i)*64)
	}
	run := func() {
		for i := 0; i < 4096; i++ {
			addr := uint64(0x2000_0000) + uint64(i%2048)*64
			h.LoadTouch(addr, 8)
			h.StoreTouch(addr+16, 8)
		}
		for i := 0; i < streamLines; i++ {
			addr := uint64(0x4000_0000) + uint64(i)*64
			h.LoadTouch(addr, 8)
			h.StoreTouch(addr+16, 8)
		}
	}
	run() // warm
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("touch path allocates %.1f times per sweep, want 0", allocs)
	}
}

// BenchmarkTouchL1Hit measures the hit fast path.
func BenchmarkTouchL1Hit(b *testing.B) {
	h := New(Westmere(), mem.New())
	h.LoadTouch(0x1000, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.LoadTouch(0x1000, 8)
	}
}

// BenchmarkTouchDRAMStream measures the full-miss path: every access
// walks L1, L2, L3 and memory, spilling a victim on the way.
func BenchmarkTouchDRAMStream(b *testing.B) {
	h := New(Westmere(), mem.New())
	const lines = 131072 // 8MB, far past L3
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.StoreTouch(0x4000_0000+uint64(i%lines)*64, 8)
	}
}

// BenchmarkTouchDRAMStreamCaliformed is BenchmarkTouchDRAMStream over
// califormed lines: every access fills a line that is a mask in DRAM
// and spills a dirty califormed victim, with no data on either.
func BenchmarkTouchDRAMStreamCaliformed(b *testing.B) {
	h := New(Westmere(), mem.New())
	const lines = 131072 // 8MB, far past L3
	for i := 0; i < lines; i++ {
		cf := isa.CFORM{Base: 0x4000_0000 + uint64(i)*64, Attrs: 0xFF00, Mask: 0xFF00}
		if res := h.CForm(cf); res.Exc != nil {
			b.Fatalf("CForm: %v", res.Exc)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.StoreTouch(0x4000_0000+uint64(i%lines)*64, 8)
	}
}

// BenchmarkSpillFillCaliformed measures the format-conversion path:
// a califormed line bouncing across the L1 boundary.
func BenchmarkSpillFillCaliformed(b *testing.B) {
	h := New(Westmere(), mem.New())
	if res := h.CForm(isa.CFORM{Base: 0x3000_0000, Attrs: 0x3C, Mask: 0x3C}); res.Exc != nil {
		b.Fatalf("CForm: %v", res.Exc)
	}
	// Two addresses 2MB apart in the same L1 set force an eviction
	// ping-pong of the califormed line.
	conflict := uint64(0x3000_0000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := uint64(0); w < 9; w++ { // overflow the 8-way L1 set
			// Offset 8 stays clear of the security bytes at 2-5: the
			// benchmark measures format conversion, not exception
			// delivery.
			h.LoadTouch(conflict+w*(32<<10)+8, 8)
		}
	}
}

// BenchmarkSpill benchmarks the raw Algorithm 1 conversion.
func BenchmarkSpill(b *testing.B) {
	bv := cacheline.Bitvector{}
	if f := bv.Caliform(0xF0F0, 0xF0F0); f >= 0 {
		b.Fatal("caliform failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cacheline.Spill(bv); err != nil {
			b.Fatal(err)
		}
	}
}
