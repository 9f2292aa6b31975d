package cache

import (
	"math/rand"
	"testing"

	"repro/internal/cacheline"
	"repro/internal/isa"
	"repro/internal/mem"
)

// oracle is a flat reference model of Califorms semantics: a byte
// array plus a per-byte security flag, with no caches, formats or
// conversions. Any divergence between the oracle and the real
// hierarchy indicates a bug in the format encodings, the spill/fill
// conversions, the write-back paths or the exception logic.
type oracle struct {
	data map[uint64]byte
	sec  map[uint64]bool
}

func newOracle() *oracle {
	return &oracle{data: make(map[uint64]byte), sec: make(map[uint64]bool)}
}

func (o *oracle) load(addr uint64, n int) (out []byte, violation bool) {
	out = make([]byte, n)
	for i := 0; i < n; i++ {
		a := addr + uint64(i)
		if o.sec[a] {
			violation = true
			out[i] = 0
		} else {
			out[i] = o.data[a]
		}
	}
	return out, violation
}

func (o *oracle) store(addr uint64, p []byte) (violation bool) {
	for i := range p {
		if o.sec[addr+uint64(i)] {
			return true
		}
	}
	for i := range p {
		o.data[addr+uint64(i)] = p[i]
	}
	return false
}

func (o *oracle) cform(cf isa.CFORM) (conflict bool) {
	if cf.Base&63 != 0 {
		return true
	}
	for i := 0; i < 64; i++ {
		if cf.Mask&(1<<uint(i)) == 0 {
			continue
		}
		a := cf.Base + uint64(i)
		set := cf.Attrs&(1<<uint(i)) != 0
		if set && o.sec[a] || !set && !o.sec[a] {
			return true
		}
	}
	for i := 0; i < 64; i++ {
		if cf.Mask&(1<<uint(i)) == 0 {
			continue
		}
		a := cf.Base + uint64(i)
		o.sec[a] = cf.Attrs&(1<<uint(i)) != 0
		o.data[a] = 0
	}
	return false
}

// checkDRAMImage checks that after a Flush every line of [0, region)
// reads back from memory as the sentinel image of the oracle's line:
// Spill(Bitvector{Data: oracle data, Mask: oracle security bytes}),
// which for an untouched line is the zero line. That is what a DRAM
// model holding every line in sentinel format holds, whatever form
// the model keeps the line in.
func (o *oracle) checkDRAMImage(t *testing.T, m *mem.Memory, region uint64) {
	t.Helper()
	for line := uint64(0); line < region/cacheline.Size; line++ {
		var bv cacheline.Bitvector
		for i := 0; i < cacheline.Size; i++ {
			a := line*cacheline.Size + uint64(i)
			bv.Data[i] = o.data[a]
			if o.sec[a] {
				bv.Mask = bv.Mask.Set(i)
			}
		}
		want, err := cacheline.Spill(bv)
		if err != nil {
			t.Fatalf("line %d: %v", line, err)
		}
		if got := m.ReadLine(line); got != want {
			t.Fatalf("line %d in DRAM: got %v %x, want %v %x (oracle mask %v)",
				line, got.Califormed, got.Data, want.Califormed, want.Data, bv.Mask)
		}
	}
}

// randomCForm draws a CFORM over four random bytes of a random line
// of the region, non-temporal one time in four.
func randomCForm(r *rand.Rand, region int) isa.CFORM {
	line := uint64(r.Intn(region / 64))
	var attrs, mask uint64
	for b := 0; b < 4; b++ {
		bit := uint64(1) << uint(r.Intn(64))
		mask |= bit
		if r.Intn(2) == 0 {
			attrs |= bit
		}
	}
	return isa.CFORM{Base: line * 64, Attrs: attrs, Mask: mask, NonTemporal: r.Intn(4) == 0}
}

// TestHierarchyMatchesOracle drives a long random mix of loads,
// stores, CFORMs (temporal and non-temporal) and flushes through a
// tiny thrash-prone hierarchy and the flat oracle, comparing every
// result. This is the end-to-end property test of the whole
// califorms-bitvector/califorms-sentinel machinery.
func TestHierarchyMatchesOracle(t *testing.T) {
	cfg := Config{
		L1:         LevelConfig{Name: "L1D", Size: 512, Ways: 2, Latency: 4},
		L2:         LevelConfig{Name: "L2", Size: 2 << 10, Ways: 2, Latency: 7},
		L3:         LevelConfig{Name: "L3", Size: 8 << 10, Ways: 4, Latency: 27},
		MemLatency: 100,
	}
	m := mem.New()
	h := New(cfg, m)
	o := newOracle()
	r := rand.New(rand.NewSource(2024))

	const region = 4096 // 64 lines, far beyond the tiny L1/L2
	for step := 0; step < 60000; step++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3: // load
			addr := uint64(r.Intn(region - 16))
			n := 1 + r.Intn(16)
			want, wantBad := o.load(addr, n)
			got, res := h.Load(addr, n)
			if (res.Exc != nil) != wantBad {
				t.Fatalf("step %d: load %#x+%d exception mismatch: hier=%v oracle=%v",
					step, addr, n, res.Exc, wantBad)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d: load %#x byte %d: hier=%#x oracle=%#x",
						step, addr, i, got[i], want[i])
				}
			}
		case 4, 5, 6: // store
			addr := uint64(r.Intn(region - 16))
			p := make([]byte, 1+r.Intn(16))
			r.Read(p)
			wantBad := o.store(addr, p)
			res := h.Store(addr, p)
			if (res.Exc != nil) != wantBad {
				t.Fatalf("step %d: store %#x exception mismatch: hier=%v oracle=%v",
					step, addr, res.Exc, wantBad)
			}
		case 7, 8: // CFORM over random bytes of a random line
			cf := randomCForm(r, region)
			wantBad := o.cform(cf)
			res := h.CForm(cf)
			if (res.Exc != nil) != wantBad {
				t.Fatalf("step %d: cform %+v exception mismatch: hier=%v oracle=%v",
					step, cf, res.Exc, wantBad)
			}
		case 9: // occasional full flush: everything round-trips
			if r.Intn(50) == 0 {
				h.Flush()
			}
		}
	}

	// Final sweep: every byte and every security flag must agree
	// after a flush (full spill of all dirty state to memory), both in
	// DRAM and read back through the hierarchy.
	h.Flush()
	o.checkDRAMImage(t, m, region)
	for addr := uint64(0); addr < region; addr++ {
		want, wantBad := o.load(addr, 1)
		got, res := h.Load(addr, 1)
		if (res.Exc != nil) != wantBad || got[0] != want[0] {
			t.Fatalf("final sweep %#x: hier=(%#x,%v) oracle=(%#x,%v)",
				addr, got[0], res.Exc != nil, want[0], wantBad)
		}
	}
}

// TestTouchHierarchyMatchesOracle is the touch-only twin of
// TestHierarchyMatchesOracle, the op mix trace replay drives: timing
// loads and stores that carry no data, temporal and non-temporal
// CFORMs, and occasional flushes. The region is four times the tiny
// L3, so califormed zero-payload lines keep cycling through every
// level and DRAM; every exception must agree with the oracle's
// security map, and after a final flush DRAM must hold the oracle's
// image of every line.
func TestTouchHierarchyMatchesOracle(t *testing.T) {
	cfg := Config{
		L1:         LevelConfig{Name: "L1D", Size: 512, Ways: 2, Latency: 4},
		L2:         LevelConfig{Name: "L2", Size: 2 << 10, Ways: 2, Latency: 7},
		L3:         LevelConfig{Name: "L3", Size: 8 << 10, Ways: 4, Latency: 27},
		MemLatency: 100,
	}
	m := mem.New()
	h := New(cfg, m)
	o := newOracle()
	r := rand.New(rand.NewSource(2025))

	const region = 32 << 10 // 512 lines
	for step := 0; step < 100000; step++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3: // load
			addr := uint64(r.Intn(region - 16))
			n := 1 + r.Intn(16)
			_, wantBad := o.load(addr, n)
			if res := h.LoadTouch(addr, n); (res.Exc != nil) != wantBad {
				t.Fatalf("step %d: load touch %#x+%d exception mismatch: hier=%v oracle=%v",
					step, addr, n, res.Exc, wantBad)
			}
		case 4, 5, 6: // store
			addr := uint64(r.Intn(region - 16))
			n := 1 + r.Intn(16)
			_, wantBad := o.load(addr, n)
			if res := h.StoreTouch(addr, n); (res.Exc != nil) != wantBad {
				t.Fatalf("step %d: store touch %#x+%d exception mismatch: hier=%v oracle=%v",
					step, addr, n, res.Exc, wantBad)
			}
		case 7, 8:
			cf := randomCForm(r, region)
			wantBad := o.cform(cf)
			if res := h.CForm(cf); (res.Exc != nil) != wantBad {
				t.Fatalf("step %d: cform %+v exception mismatch: hier=%v oracle=%v",
					step, cf, res.Exc, wantBad)
			}
		case 9:
			if r.Intn(50) == 0 {
				h.Flush()
			}
		}
	}
	h.Flush()
	o.checkDRAMImage(t, m, region)
	for line := uint64(0); line < region/64; line++ {
		var want cacheline.SecMask
		for i := 0; i < 64; i++ {
			if o.sec[line*64+uint64(i)] {
				want = want.Set(i)
			}
		}
		if got := h.SecMaskAt(line * 64); got != want {
			t.Fatalf("line %d mask after flush: hier=%v oracle=%v", line, got, want)
		}
	}
}
