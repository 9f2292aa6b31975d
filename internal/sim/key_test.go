package sim

import (
	"strings"
	"testing"

	"repro/internal/alloc"
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

// legacyStreamKey is the stream key as the store has always built it:
// the normalized determinant set with the caller's heap pointer and no
// machine. StreamOf must reproduce its bytes, or every stored
// recording would go stale.
func legacyStreamKey(spec workload.Spec, rc RunConfig) string {
	d := keyDoc{
		Bench:     spec.Name,
		BenchSeed: spec.Seed,
		Policy:    rc.Policy,
		Visits:    visitsOrDefault(rc.Visits),
		Heap:      rc.Heap,
	}
	if rc.Policy != PolicyNone {
		d.MinPad, d.MaxPad, d.FixedPad = rc.MinPad, rc.MaxPad, rc.FixedPad
		d.Seed = rc.LayoutSeed
		d.UseCForm = rc.UseCForm
	}
	return d.String()
}

// TestStreamOfMatchesStreamKey: over every ablation point and a grid
// of every policy, pad shape, layout seed, CFORM setting, heap
// override, visit count and machine, StreamOf(...).Key() renders the
// store's stream key byte for byte, and StreamOf partitions the
// configurations exactly as the key does — two configurations share a
// StreamID if and only if they share a key.
func TestStreamOfMatchesStreamKey(t *testing.T) {
	type cfg struct {
		spec workload.Spec
		rc   RunConfig
	}
	var cfgs []cfg
	for _, a := range Ablations(500) {
		for _, p := range a.Points {
			cfgs = append(cfgs, cfg{p.Spec, p.RC})
		}
	}
	clean := alloc.DefaultConfig()
	clean.Protocol = alloc.ProtocolClean
	nt := clean
	nt.NonTemporalFree = true
	heaps := []*alloc.Config{nil, &clean, &nt}
	slow := machine.Default()
	slow.Hier.ExtraL2L3 = 1
	for _, spec := range workload.Fig10Set()[:3] {
		for policy := PolicyNone; policy <= PolicyIntelligent; policy++ {
			for _, pads := range [][3]int{{0, 0, 0}, {1, 7, 0}, {0, 0, 3}} {
				for _, seed := range []int64{0, 7919} {
					for _, cform := range []bool{false, true} {
						for _, heap := range heaps {
							for _, visits := range []int{0, 500, 100_000} {
								for _, m := range []machine.Desc{{}, slow} {
									cfgs = append(cfgs, cfg{spec, RunConfig{
										Policy: policy, MinPad: pads[0], MaxPad: pads[1], FixedPad: pads[2],
										LayoutSeed: seed, UseCForm: cform, Heap: heap, Visits: visits, Machine: m,
									}})
								}
							}
						}
					}
				}
			}
		}
	}
	keyOf := make(map[StreamID]string)
	idOf := make(map[string]StreamID)
	for _, c := range cfgs {
		id, key := StreamOf(c.spec, c.rc), legacyStreamKey(c.spec, c.rc)
		if got := id.Key(); got != key {
			t.Fatalf("StreamOf(%s, %+v).Key() = %s, want %s", c.spec.Name, c.rc, got, key)
		}
		if got := StreamKey(c.spec, c.rc); got != key {
			t.Fatalf("StreamKey(%s, %+v) = %s, want %s", c.spec.Name, c.rc, got, key)
		}
		if k, ok := keyOf[id]; ok && k != key {
			t.Fatalf("one StreamID names two keys: %s and %s", k, key)
		}
		if i, ok := idOf[key]; ok && i != id {
			t.Fatalf("one key %s has two StreamIDs", key)
		}
		keyOf[id], idOf[key] = key, id
	}
	if len(keyOf) != len(idOf) {
		t.Fatalf("%d StreamIDs for %d keys", len(keyOf), len(idOf))
	}
}
