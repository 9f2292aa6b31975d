package attack

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/compiler"
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

// califormedInstance places one protected instance on a fresh machine.
func califormedInstance(t *testing.T, pol layout.Policy, seed int64) (*cache.Hierarchy, *compiler.Instrumented, uint64) {
	t.Helper()
	h := cache.New(cache.Westmere(), mem.New())
	r := rand.New(rand.NewSource(seed))
	in := compiler.Instrument(structA(), pol, layout.PolicyConfig{MinPad: 1, MaxPad: 7, Rand: r})
	base := uint64(0x10000)
	for _, op := range in.FrameEnterOps(nil, base) {
		if res := h.CForm(op); res.Exc != nil {
			t.Fatal(res.Exc)
		}
	}
	return h, in, base
}

func TestIntraObjectOverflowDetected(t *testing.T) {
	// The paper's headline capability: buf overflows into fp are
	// caught byte-granularly, because random security bytes separate
	// them under the intelligent policy.
	for seed := int64(0); seed < 20; seed++ {
		h, in, base := califormedInstance(t, layout.Intelligent, seed)
		res := InjectLinearOverflow(h, in, base, 2 /* buf */, 64)
		if !res.Detected {
			t.Fatalf("seed %d: overflow from buf into fp not detected", seed)
		}
		// Detection must trigger before the overflow escapes the
		// security span that guards fp.
		for _, sp := range in.Layout.Spans {
			if sp.Kind == layout.SpanField && sp.Field == 3 {
				bufEnd := 0
				for _, s2 := range in.Layout.Spans {
					if s2.Kind == layout.SpanField && s2.Field == 2 {
						bufEnd = s2.Offset + s2.Size
					}
				}
				if res.BytesWritten > sp.Offset-bufEnd {
					t.Fatalf("seed %d: attacker wrote %d bytes, past fp at %d",
						seed, res.BytesWritten, sp.Offset)
				}
			}
		}
	}
}

func TestOverreadDetected(t *testing.T) {
	// Unlike stack canaries, tripwires catch overreads (§9).
	h, in, base := califormedInstance(t, layout.Full, 42)
	res := InjectLinearOverread(h, in, base, 0, 16)
	if !res.Detected {
		t.Fatal("overread past field c not detected under full policy")
	}
}

func TestUnprotectedBaselineMissesAttack(t *testing.T) {
	// Sanity: with no security bytes the same overflow goes
	// undetected — the machine itself isn't magically safe.
	h := cache.New(cache.Westmere(), mem.New())
	in := compiler.InstrumentNone(structA())
	res := InjectLinearOverflow(h, in, 0x10000, 2, 8)
	if res.Detected {
		t.Fatal("baseline must not detect anything")
	}
	if res.BytesWritten != 8 {
		t.Fatal("attacker must write freely on the baseline")
	}
}

func TestScanSurvivalClosedForm(t *testing.T) {
	// §7.3: with P/N = 0.1, survival decays geometrically in the
	// number of objects scanned.
	if got := ScanSurvival(0.1, 0); got != 1 {
		t.Fatalf("zero objects: %v", got)
	}
	s250 := ScanSurvival(0.1, 250)
	if s250 > 4e-12 || s250 < 3e-12 {
		t.Fatalf("0.9^250 = %v, want ~3.7e-12", s250)
	}
	if ScanSurvival(0, 100) != 1 || ScanSurvival(1, 1) != 0 {
		t.Fatal("degenerate cases")
	}
}

func TestGuessProbability(t *testing.T) {
	// §7.3 ideal attacker: 1/7 per span with 1–7B random spans.
	if g := GuessProbability(1, 7); math.Abs(g-1.0/7) > 1e-12 {
		t.Fatalf("one span: %v", g)
	}
	if g := GuessProbability(3, 7); math.Abs(g-1.0/343) > 1e-12 {
		t.Fatalf("three spans: %v", g)
	}
}

func TestScanExperimentMatchesClosedForm(t *testing.T) {
	defs := layout.SPECProfile().Generate(50, 9)
	r := rand.New(rand.NewSource(1))
	cfg := layout.PolicyConfig{MinPad: 1, MaxPad: 7, Rand: r}
	surv, pOverN := ScanExperiment(defs, layout.Full, cfg, 40, 20000, 7)
	want := ScanSurvival(pOverN, 40)
	if math.Abs(surv-want) > 0.02 {
		t.Fatalf("monte carlo %v vs closed form %v (P/N=%.3f)", surv, want, pOverN)
	}
	if pOverN < 0.1 {
		t.Fatalf("full policy should blacklist >10%% of object bytes, got %.3f", pOverN)
	}
}

func TestSpeculativeProbeIndistinguishable(t *testing.T) {
	h, in, base := califormedInstance(t, layout.Full, 3)
	var addrs []uint64
	for _, o := range in.SecurityOffsets() {
		addrs = append(addrs, base+uint64(o))
	}
	if len(addrs) == 0 {
		t.Fatal("no security bytes to probe")
	}
	if !SpeculativeProbe(h, addrs) {
		t.Fatal("security bytes must read zero and raise deferred exceptions")
	}
}

func TestWhitelistAbuseWindow(t *testing.T) {
	var m isa.MaskRegisters
	excs := []*isa.Exception{
		{Kind: isa.ExcLoad, Addr: 1},
		{Kind: isa.ExcStore, Addr: 2},
		{Kind: isa.ExcCaliformConflict, Addr: 3}, // never suppressible
	}
	if got := WhitelistAbuseWindow(&m, excs); got != 2 {
		t.Fatalf("suppressed %d, want 2", got)
	}
	if m.Active() {
		t.Fatal("window must close")
	}
}
