package sim

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/workload"
)

func keySpec(t *testing.T) workload.Spec {
	t.Helper()
	spec, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("mcf not registered")
	}
	return spec
}

func TestKeyNormalization(t *testing.T) {
	spec := keySpec(t)
	base := RunConfig{Policy: PolicyNone, Visits: 500}
	// The baseline ignores pads, seed and CFORM issue; its key must
	// too, or repeat sweeps would re-run provably identical cells.
	noisy := RunConfig{Policy: PolicyNone, MinPad: 1, MaxPad: 7, FixedPad: 3, LayoutSeed: 42, UseCForm: true, Visits: 500}
	if RunKey(spec, base) != RunKey(spec, noisy) {
		t.Error("baseline pad/seed fields leaked into RunKey")
	}
	// An instrumented config's pads are load-bearing.
	a := RunConfig{Policy: PolicyFull, MinPad: 1, MaxPad: 7, Visits: 500}
	b := RunConfig{Policy: PolicyFull, MinPad: 2, MaxPad: 7, Visits: 500}
	if RunKey(spec, a) == RunKey(spec, b) {
		t.Error("distinct pad bounds share a RunKey")
	}
	// The Run default visit count resolves to the same key as an
	// explicit 100k.
	if RunKey(spec, RunConfig{Policy: PolicyNone}) != RunKey(spec, RunConfig{Policy: PolicyNone, Visits: 100_000}) {
		t.Error("default visit count does not normalize")
	}
}

func TestStreamKeyIsMachineFree(t *testing.T) {
	spec := keySpec(t)
	rc := RunConfig{Policy: PolicyFull, MinPad: 1, MaxPad: 7, UseCForm: true, Visits: 500}
	variant := rc
	variant.Machine = machine.Default()
	variant.Machine.Hier.ExtraL2L3 = 1
	// Machines consume streams without influencing them: same
	// StreamKey, different RunKey.
	if StreamKey(spec, rc) != StreamKey(spec, variant) {
		t.Error("machine leaked into StreamKey")
	}
	if RunKey(spec, rc) == RunKey(spec, variant) {
		t.Error("machine variant did not change RunKey")
	}
	// The zero machine and the explicit default share RunKeys.
	def := rc
	def.Machine = machine.Default()
	if RunKey(spec, rc) != RunKey(spec, def) {
		t.Error("zero machine and explicit default diverge")
	}
	if !strings.Contains(RunKey(spec, rc), `"bench":"mcf"`) {
		t.Errorf("key is not the documented canonical JSON: %s", RunKey(spec, rc))
	}
}
