package cache

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// TestMetadataSurvivesSwapCycle is the end-to-end §6.3 path: caliform
// lines through the hierarchy, flush to memory (ECC spare bits),
// swap the page out (metadata packed into the OS-reserved region),
// swap back in, and verify both data and byte-granular blacklisting
// survive the full journey. Odd lines are CFORM-only: their payload
// stays zero, so they reach DRAM in mask form, and the swap must carry
// them like any materialized line.
func TestMetadataSurvivesSwapCycle(t *testing.T) {
	m := mem.New()
	h := New(Westmere(), m)
	r := rand.New(rand.NewSource(5))

	// One page worth of lines with mixed security bytes and data.
	const page = uint64(3)
	base := page * mem.PageSize
	type expect struct {
		addr uint64
		val  byte
		sec  bool
	}
	var expects []expect
	for line := 0; line < mem.LinesPerPage; line++ {
		lineBase := base + uint64(line*64)
		secOff := r.Intn(64)
		attrs := uint64(1) << uint(secOff)
		if res := h.CForm(isa.CFORM{Base: lineBase, Attrs: attrs, Mask: attrs}); res.Exc != nil {
			t.Fatal(res.Exc)
		}
		dataOff := (secOff + 1 + r.Intn(62)) % 64
		if dataOff == secOff {
			dataOff = (dataOff + 1) % 64
		}
		v := byte(1 + r.Intn(255))
		if line%2 == 1 {
			v = 0
		} else if res := h.Store(lineBase+uint64(dataOff), []byte{v}); res.Exc != nil {
			t.Fatal(res.Exc)
		}
		expects = append(expects,
			expect{addr: lineBase + uint64(secOff), sec: true},
			expect{addr: lineBase + uint64(dataOff), val: v})
	}

	// The OS flushes before reclaiming the frame (our model's
	// equivalent of shooting down the page's cached lines).
	h.Flush()
	if got := m.Footprint(); got != mem.LinesPerPage {
		t.Fatalf("DRAM holds %d lines after flush, want the page's %d", got, mem.LinesPerPage)
	}
	if err := m.SwapOut(page); err != nil {
		t.Fatal(err)
	}
	if m.SwappedMetadataBytes() != 8 {
		t.Fatalf("swap metadata = %dB, want 8B per page", m.SwappedMetadataBytes())
	}
	if err := m.SwapIn(page); err != nil {
		t.Fatal(err)
	}

	// Reload through the (now cold) hierarchy: fills must reconstruct
	// the bitvector format from the swapped-in sentinel lines.
	for _, e := range expects {
		data, res := h.Load(e.addr, 1)
		if e.sec {
			if res.Exc == nil || data[0] != 0 {
				t.Fatalf("security byte %#x lost across swap (exc=%v data=%v)", e.addr, res.Exc, data)
			}
		} else {
			if res.Exc != nil || data[0] != e.val {
				t.Fatalf("data byte %#x corrupted across swap: got %d want %d (exc=%v)",
					e.addr, data[0], e.val, res.Exc)
			}
		}
	}
}
