package sim

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file holds the ablation studies for the design decisions the
// paper makes but does not sweep: the non-temporal CFORM variant
// (§6.1 footnote), the L1<->L2 conversion latency it claims can be
// hidden (§8.1), the quarantine budget of the temporal-safety story,
// and the core's memory-level-parallelism assumptions underlying the
// Figure 10 result. Each sweep is declared as data, a list of points,
// which the harness serves like any other sweep's cells.

// AblationPoint is one configuration point of an ablation sweep: the
// run it measures, the label and note it renders, and the point its
// slowdown is reported against.
type AblationPoint struct {
	Label string
	Spec  workload.Spec
	RC    RunConfig
	// Base indexes the sweep's reference point: the row's slowdown is
	// measured against that point's cycles.
	Base int
	Note func(Result) string
}

// Ablation is one labelled design-choice sweep.
type Ablation struct {
	Name   string
	Points []AblationPoint
}

// AblationRow is one rendered configuration point of an ablation sweep.
type AblationRow struct {
	Label    string
	Cycles   float64
	Slowdown float64 // vs the point's Base
	Note     string
}

// Rows folds the sweep's results — results[i] is point i's — into its
// report rows.
func (a Ablation) Rows(results []Result) []AblationRow {
	rows := make([]AblationRow, len(a.Points))
	for i, p := range a.Points {
		r := results[i]
		rows[i] = AblationRow{Label: p.Label, Cycles: r.Cycles, Slowdown: stats.Slowdown(results[p.Base].Cycles, r.Cycles), Note: p.Note(r)}
	}
	return rows
}

// Ablations returns every registered sweep in report order; the
// harness ablations experiment serves their points, so a new sweep
// added here shows up in `califorms-bench -exp ablations`
// automatically.
func Ablations(visits int) []Ablation {
	return []Ablation{
		ablationSpillFill(visits),
		ablationNonTemporalCForm(visits),
		ablationQuarantine(visits),
		ablationMLP(visits),
		ablationL1Variant(visits),
	}
}

// ablationSpillFill sweeps the added latency of the L1<->L2 caliform
// conversion on a conversion-heavy workload. The paper's VLSI result
// says the fill fits in the miss path (0 extra cycles) and the spill
// can be pipelined; this quantifies what each un-hidden cycle would
// cost, supporting the "can be completely hidden" claim's relevance.
func ablationSpillFill(visits int) Ablation {
	spec, _ := workload.ByName("xalancbmk")
	a := Ablation{Name: "L1<->L2 caliform conversion latency (xalancbmk, full 1-7B + CFORM)"}
	note := func(r Result) string { return fmt.Sprintf("%d spills, %d fills", r.Spills, r.Fills) }
	for _, lat := range []int{0, 1, 2, 4} {
		d := machine.Default()
		d.Hier.SpillFillLatency = lat
		rc := RunConfig{Policy: PolicyFull, MinPad: 1, MaxPad: 7, UseCForm: true, Visits: visits, Machine: d}
		a.Points = append(a.Points, AblationPoint{Label: fmt.Sprintf("+%d cycles", lat), Spec: spec, RC: rc, Note: note})
	}
	return a
}

// ablationNonTemporalCForm compares temporal vs non-temporal CFORMs
// on free (§6.1 footnote: deallocated lines should not pollute the
// L1). Uses the clean-before-use protocol where frees caliform whole
// objects, making the effect visible.
func ablationNonTemporalCForm(visits int) Ablation {
	spec, _ := workload.ByName("perlbench")
	a := Ablation{Name: "non-temporal CFORM on free (perlbench, clean-before-use heap)"}
	note := func(r Result) string { return fmt.Sprintf("L1 miss rate %.4f", r.L1MissRate) }
	for i, label := range []string{"temporal CFORM", "non-temporal CFORM"} {
		heapCfg := alloc.DefaultConfig()
		heapCfg.Protocol = alloc.ProtocolClean
		heapCfg.NonTemporalFree = i == 1
		rc := RunConfig{Policy: PolicyOpportunistic, UseCForm: true, Visits: visits, Heap: &heapCfg}
		a.Points = append(a.Points, AblationPoint{Label: label, Spec: spec, RC: rc, Note: note})
	}
	return a
}

// ablationQuarantine sweeps the quarantine budget: larger budgets
// widen the temporal-safety window (freed memory stays blacklisted
// longer) at the cost of heap growth.
func ablationQuarantine(visits int) Ablation {
	spec, _ := workload.ByName("perlbench")
	a := Ablation{Name: "quarantine budget (perlbench, clean-before-use heap)"}
	note := func(r Result) string { return fmt.Sprintf("heap %dKB", r.HeapBytes>>10) }
	for _, frac := range []float64{0, 0.25, 0.5} {
		heapCfg := alloc.DefaultConfig()
		heapCfg.Protocol = alloc.ProtocolClean
		heapCfg.QuarantineFrac = frac
		rc := RunConfig{Policy: PolicyOpportunistic, UseCForm: true, Visits: visits, Heap: &heapCfg}
		a.Points = append(a.Points, AblationPoint{Label: fmt.Sprintf("%.0f%% of heap", frac*100), Spec: spec, RC: rc, Note: note})
	}
	return a
}

// ipcNote renders a point's IPC.
func ipcNote(r Result) string { return fmt.Sprintf("IPC %.2f", r.IPC()) }

// ablationMLP sweeps the core's MSHR count on the pointer-chasing
// kernel vs a streaming one: the dependent-load serialization that
// differentiates them is the mechanism behind the per-benchmark
// spread of Figure 10. Slowdowns relative to the first row are not
// meaningful across two benchmarks, so each benchmark's points report
// against its own best (10-MSHR) point instead.
func ablationMLP(visits int) Ablation {
	a := Ablation{Name: "MSHR count (memory-level parallelism)"}
	for _, name := range []string{"mcf", "libquantum"} {
		spec, _ := workload.ByName(name)
		best := len(a.Points) + 2
		for _, mshrs := range []int{1, 4, 10} {
			d := machine.Default()
			d.Core.MSHRs = mshrs
			rc := RunConfig{Policy: PolicyNone, Visits: visits, Machine: d}
			a.Points = append(a.Points, AblationPoint{Label: fmt.Sprintf("%s, %d MSHRs", name, mshrs), Spec: spec, RC: rc, Base: best, Note: ipcNote})
		}
	}
	return a
}

// ablationL1Variant translates the Table 7 VLSI delay overheads of
// the three L1 metadata formats into end-to-end slowdown: the 8B
// bitvector keeps the 4-cycle L1 (its +1.8% delay fits the existing
// period), while califorms-1B (+22%) and califorms-4B (+49%) push the
// L1 to 5 and 6 cycles respectively. This is the system-level
// argument for spending the extra metadata SRAM.
func ablationL1Variant(visits int) Ablation {
	spec, _ := workload.ByName("xalancbmk")
	a := Ablation{Name: "L1 metadata format (xalancbmk, full 1-7B + CFORM; Table 7 delays as cycles)"}
	for i, label := range []string{"califorms-8B (4cy L1)", "califorms-1B (5cy L1)", "califorms-4B (6cy L1)"} {
		d := machine.Default()
		d.Hier.L1.Latency = 4 + i
		rc := RunConfig{Policy: PolicyFull, MinPad: 1, MaxPad: 7, UseCForm: true, Visits: visits, Machine: d}
		a.Points = append(a.Points, AblationPoint{Label: label, Spec: spec, RC: rc, Note: ipcNote})
	}
	return a
}
