package mem

import (
	"math/rand"
	"testing"

	"repro/internal/cacheline"
)

func TestReadUntouchedIsZero(t *testing.T) {
	m := New()
	s := m.ReadLine(12345)
	if s.Califormed || s.Data != (cacheline.Data{}) {
		t.Fatal("untouched memory must read as zero, natural format")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := New()
	var d cacheline.Data
	for i := range d {
		d[i] = byte(i)
	}
	m.WriteLine(7, cacheline.Sentinel{Data: d, Califormed: true})
	got := m.ReadLine(7)
	if !got.Califormed || got.Data != d {
		t.Fatal("line round trip failed")
	}
}

func TestZeroLineKeptSparse(t *testing.T) {
	m := New()
	m.WriteLine(3, cacheline.Sentinel{})
	if m.Footprint() != 0 {
		t.Fatal("all-zero natural line should not consume footprint")
	}
	m.WriteLine(3, cacheline.Sentinel{Califormed: true})
	if m.Footprint() != 1 {
		t.Fatal("califormed line must be retained even if data is zero")
	}
}

func TestSwapPreservesCaliformMetadata(t *testing.T) {
	m := New()
	r := rand.New(rand.NewSource(1))
	const page = uint64(5)
	base := page * LinesPerPage

	want := make(map[uint64]cacheline.Sentinel)
	for i := uint64(0); i < LinesPerPage; i++ {
		var d cacheline.Data
		r.Read(d[:])
		s := cacheline.Sentinel{Data: d, Califormed: i%3 == 0}
		m.WriteLine(base+i, s)
		want[base+i] = s
	}

	if err := m.SwapOut(page); err != nil {
		t.Fatal(err)
	}
	if m.SwappedMetadataBytes() != 8 {
		t.Fatalf("swap metadata = %dB, want 8B per 4KB page (§6.3)", m.SwappedMetadataBytes())
	}
	for i := uint64(0); i < LinesPerPage; i++ {
		if got := m.ReadLine(base + i); got.Califormed || got.Data != (cacheline.Data{}) {
			t.Fatal("swapped-out page must read as absent")
		}
	}

	if err := m.SwapIn(page); err != nil {
		t.Fatal(err)
	}
	for idx, s := range want {
		got := m.ReadLine(idx)
		if got.Califormed != s.Califormed || got.Data != s.Data {
			t.Fatalf("line %d corrupted across swap", idx)
		}
	}
	if m.SwappedMetadataBytes() != 0 {
		t.Fatal("metadata must be reclaimed on swap-in")
	}
}

func TestSwapErrors(t *testing.T) {
	m := New()
	if err := m.SwapIn(9); err == nil {
		t.Fatal("swap-in of resident page must fail")
	}
	if err := m.SwapOut(9); err != nil {
		t.Fatal(err)
	}
	if err := m.SwapOut(9); err == nil {
		t.Fatal("double swap-out must fail")
	}
}

func TestStatsCounting(t *testing.T) {
	m := New()
	m.ReadLine(1)
	m.WriteLine(1, cacheline.Sentinel{Califormed: true})
	if m.Stats.LineReads != 1 || m.Stats.LineWrites != 1 {
		t.Fatalf("stats = %+v", m.Stats)
	}
}

// TestMaskFormLines checks that a zero-payload line written as its
// mask reads back, counts and swaps exactly as its sentinel image
// Spill(Bitvector{Mask: m}) would, and that the two forms of a line
// replace each other.
func TestMaskFormLines(t *testing.T) {
	m := New()
	mask := cacheline.SecMask(0xF0F0_0000_0000_0301)
	image, err := cacheline.Spill(cacheline.Bitvector{Mask: mask})
	if err != nil {
		t.Fatal(err)
	}
	base := uint64(7) * LinesPerPage

	m.WriteMask(base+1, mask)
	if s, resident := m.ReadLineSparse(base + 1); !resident || s != image {
		t.Fatalf("mask line reads (%v, %v), want its sentinel image", s, resident)
	}
	var dst cacheline.Sentinel
	if mk, materialized := m.ReadLineMask(base+1, &dst); materialized || mk != mask {
		t.Fatalf("ReadLineMask = (%v, materialized %v), want the mask", mk, materialized)
	}
	if m.Footprint() != 1 {
		t.Fatalf("footprint %d, want 1", m.Footprint())
	}
	m.WriteMask(base+1, 0)
	if _, resident := m.ReadLineSparse(base + 1); resident || m.Footprint() != 0 {
		t.Fatal("mask 0 must leave the zero line, not resident")
	}

	// A materialized line and a mask line replace each other.
	var d cacheline.Data
	d[9] = 0x5a
	m.WriteLine(base+2, cacheline.Sentinel{Data: d})
	m.WriteMask(base+2, mask)
	if got := m.ReadLine(base + 2); got != image || m.Footprint() != 1 {
		t.Fatalf("mask write over a materialized line: got %v, footprint %d", got, m.Footprint())
	}
	m.WriteLine(base+2, cacheline.Sentinel{Data: d})
	if got := m.ReadLine(base + 2); got.Data != d || got.Califormed || m.Footprint() != 1 {
		t.Fatalf("line write over a mask line: got %v, footprint %d", got, m.Footprint())
	}
	m.WriteMask(base+3, mask)
	m.WriteLine(base+3, cacheline.Sentinel{})
	if _, resident := m.ReadLineSparse(base + 3); resident {
		t.Fatal("zero line write must clear a mask line")
	}

	// Swap carries mask lines; the page is writable again after
	// swap-in.
	m.WriteMask(base+4, mask)
	if err := m.SwapOut(7); err != nil {
		t.Fatal(err)
	}
	if m.Footprint() != 0 {
		t.Fatalf("swapped-out page leaves %d lines resident", m.Footprint())
	}
	if err := m.SwapIn(7); err != nil {
		t.Fatal(err)
	}
	if got := m.ReadLine(base + 4); got != image {
		t.Fatalf("mask line across swap: got %v, want its image", got)
	}
	if got := m.ReadLine(base + 2); got.Data != d {
		t.Fatal("data line lost across swap")
	}
	m.WriteMask(base+5, mask)
	if m.Footprint() != 3 {
		t.Fatalf("footprint after swap-in and a mask write = %d, want 3", m.Footprint())
	}
}
