package cacheline

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomLine builds a bitvector line with the given security mask and
// otherwise random data (security bytes zeroed, as hardware enforces).
func randomLine(r *rand.Rand, m SecMask) Bitvector {
	var d Data
	r.Read(d[:])
	return NewBitvector(d, m)
}

func masksEqual(t *testing.T, got, want Bitvector) {
	t.Helper()
	if got.Mask != want.Mask {
		t.Fatalf("mask mismatch:\n got  %v\n want %v", got.Mask, want.Mask)
	}
	if got.Data != want.Data {
		t.Fatalf("data mismatch for mask %v:\n got  %x\n want %x", want.Mask, got.Data, want.Data)
	}
}

func TestSpillFillRoundTripNoSecurity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		bv := randomLine(r, 0)
		s, err := Spill(bv)
		if err != nil {
			t.Fatal(err)
		}
		if s.Califormed {
			t.Fatal("line without security bytes must not be califormed")
		}
		if s.Data != bv.Data {
			t.Fatal("natural line must pass through unchanged")
		}
		masksEqual(t, Fill(s), bv)
	}
}

func TestSpillFillRoundTripCounts(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for n := 1; n <= 64; n++ {
		for trial := 0; trial < 50; trial++ {
			var m SecMask
			for m.Count() < n {
				m = m.Set(r.Intn(Size))
			}
			bv := randomLine(r, m)
			s, err := Spill(bv)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if !s.Califormed {
				t.Fatalf("n=%d: expected califormed", n)
			}
			masksEqual(t, Fill(s), bv)
		}
	}
}

func TestSpillFillSecurityInsideHeader(t *testing.T) {
	// Regression cases for security bytes that overlap the header
	// region (the corner Algorithm 1's prose glosses over).
	cases := []SecMask{
		SecMask(0).Set(0),
		SecMask(0).Set(1),
		SecMask(0).Set(0).Set(1),
		SecMask(0).Set(1).Set(10),
		SecMask(0).Set(0).Set(1).Set(2).Set(3),
		SecMask(0).Set(0).Set(1).Set(2).Set(3).Set(40).Set(63),
		SecMask(0).Set(2).Set(3).Set(17),
		SecMask(0).Set(3).Set(4).Set(5).Set(6).Set(7),
	}
	r := rand.New(rand.NewSource(3))
	for _, m := range cases {
		for trial := 0; trial < 100; trial++ {
			bv := randomLine(r, m)
			s, err := Spill(bv)
			if err != nil {
				t.Fatalf("mask %v: %v", m, err)
			}
			masksEqual(t, Fill(s), bv)
		}
	}
}

func TestSpillFillQuick(t *testing.T) {
	// Property: Fill(Spill(x)) == x for any data and mask, provided
	// security bytes hold zero (the system invariant).
	prop := func(raw [Size]byte, mask uint64) bool {
		bv := NewBitvector(Data(raw), SecMask(mask))
		s, err := Spill(bv)
		if err != nil {
			return false
		}
		got := Fill(s)
		return got.Mask == bv.Mask && got.Data == bv.Data
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestSpillFillZeroDataMaskForm checks the identity the cache model's
// mask form rests on: a line with zero data is fully described by its
// security mask, Fill(Spill(Bitvector{Mask: m})) == Bitvector{Mask: m},
// and its sentinel image is califormed exactly when m != 0.
// TestSpillFillQuick draws random data, so it almost never covers the
// zero payload.
func TestSpillFillZeroDataMaskForm(t *testing.T) {
	check := func(m SecMask) bool {
		s, err := Spill(Bitvector{Mask: m})
		if err != nil {
			t.Errorf("mask %v: %v", m, err)
			return false
		}
		if s.Califormed != (m != 0) {
			t.Errorf("mask %v: Califormed = %v", m, s.Califormed)
			return false
		}
		if got := Fill(s); got != (Bitvector{Mask: m}) {
			t.Errorf("mask %v: Fill(Spill) = %v %x", m, got.Mask, got.Data)
			return false
		}
		return true
	}
	check(0)
	check(SecMask(^uint64(0)))
	for i := 0; i < Size; i++ {
		check(SecMask(0).Set(i))
		for j := i + 1; j < Size; j++ {
			check(SecMask(0).Set(i).Set(j))
		}
	}
	prop := func(m uint64) bool { return check(SecMask(m)) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestFindSentinelNeverCollides(t *testing.T) {
	prop := func(raw [Size]byte) bool {
		s, err := FindSentinel(Data(raw))
		if err != nil {
			// Only possible when all 64 patterns are used.
			used := map[byte]bool{}
			for _, b := range raw {
				used[b&0x3f] = true
			}
			return len(used) == 64
		}
		for _, b := range raw {
			if b&0x3f == s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFindSentinelExhausted(t *testing.T) {
	var d Data
	for i := range d {
		d[i] = byte(i) & 0x3f
	}
	if _, err := FindSentinel(d); err != ErrNoSentinel {
		t.Fatalf("expected ErrNoSentinel, got %v", err)
	}
}

func TestSentinelGuaranteedWithSecurityByte(t *testing.T) {
	// The paper's key insight: with at least one security byte, at
	// most 63 normal values exist, so a sentinel always exists even
	// for adversarial data. Fill the line with all-distinct low-6
	// patterns, then make some bytes security bytes.
	r := rand.New(rand.NewSource(4))
	for n := 4; n <= 64; n++ {
		var d Data
		perm := r.Perm(64)
		for i := range d {
			d[i] = byte(perm[i])
		}
		var m SecMask
		for m.Count() < n {
			m = m.Set(r.Intn(Size))
		}
		bv := NewBitvector(d, m)
		if _, err := Spill(bv); err != nil {
			t.Fatalf("n=%d: sentinel must exist: %v", n, err)
		}
	}
}

func TestHeaderMetaCriticalWordFirst(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for n := 1; n <= 10; n++ {
		var m SecMask
		for m.Count() < n {
			m = m.Set(r.Intn(Size))
		}
		bv := randomLine(r, m)
		s, err := Spill(bv)
		if err != nil {
			t.Fatal(err)
		}
		hl, addrs, _, hasSent := s.HeaderMeta()
		want := n
		if want > 4 {
			want = 4
		}
		if hl != want || len(addrs) != want {
			t.Fatalf("n=%d: header len %d addrs %v", n, hl, addrs)
		}
		secIdx := m.Indices()
		for i, a := range addrs {
			if a != secIdx[i] {
				t.Fatalf("n=%d: addr[%d]=%d want %d", n, i, a, secIdx[i])
			}
		}
		if hasSent != (n >= 4) {
			t.Fatalf("n=%d: hasSentinel=%v", n, hasSent)
		}
	}
}

func TestHeaderMetaNatural(t *testing.T) {
	s := Sentinel{Califormed: false}
	hl, addrs, _, hasSent := s.HeaderMeta()
	if hl != 0 || addrs != nil || hasSent {
		t.Fatal("natural line must decode to empty metadata")
	}
}

func TestSpillPreservesNormalBytesInPlaceBeyondHeader(t *testing.T) {
	// Normal bytes at offsets >= 4 that are not relocation targets
	// must stay put: califorms-sentinel supports critical-word-first
	// delivery because later flits are (mostly) natural format.
	r := rand.New(rand.NewSource(6))
	m := SecMask(0).Set(20).Set(30)
	bv := randomLine(r, m)
	s, err := Spill(bv)
	if err != nil {
		t.Fatal(err)
	}
	for i := 4; i < Size; i++ {
		if i == 20 || i == 30 {
			continue
		}
		if s.Data[i] != bv.Data[i] {
			t.Fatalf("byte %d moved: got %#x want %#x", i, s.Data[i], bv.Data[i])
		}
	}
}

func BenchmarkSpill(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	lines := make([]Bitvector, 256)
	for i := range lines {
		var m SecMask
		for m.Count() < 1+i%8 {
			m = m.Set(r.Intn(Size))
		}
		lines[i] = randomLine(r, m)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Spill(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFill(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	lines := make([]Sentinel, 256)
	for i := range lines {
		var m SecMask
		for m.Count() < 1+i%8 {
			m = m.Set(r.Intn(Size))
		}
		s, err := Spill(randomLine(r, m))
		if err != nil {
			b.Fatal(err)
		}
		lines[i] = s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fill(lines[i%len(lines)])
	}
}
