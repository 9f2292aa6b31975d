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
// Figure 10 result.

// AblationRow is one configuration point of an ablation sweep.
type AblationRow struct {
	Label    string
	Cycles   float64
	Slowdown float64 // vs the sweep's first row
	Note     string
}

// AblationResult is a labelled sweep.
type AblationResult struct {
	Name string
	Rows []AblationRow
}

func finish(a *AblationResult) {
	base := a.Rows[0].Cycles
	for i := range a.Rows {
		a.Rows[i].Slowdown = stats.Slowdown(base, a.Rows[i].Cycles)
	}
}

// AblationSpillFill sweeps the added latency of the L1<->L2 caliform
// conversion on a conversion-heavy workload. The paper's VLSI result
// says the fill fits in the miss path (0 extra cycles) and the spill
// can be pipelined; this quantifies what each un-hidden cycle would
// cost, supporting the "can be completely hidden" claim's relevance.
func AblationSpillFill(visits int, run func(workload.Spec, RunConfig) Result) AblationResult {
	spec, _ := workload.ByName("xalancbmk")
	out := AblationResult{Name: "L1<->L2 caliform conversion latency (xalancbmk, full 1-7B + CFORM)"}
	for _, lat := range []int{0, 1, 2, 4} {
		d := machine.Default()
		d.Hier.SpillFillLatency = lat
		r := run(spec, RunConfig{Policy: PolicyFull, MinPad: 1, MaxPad: 7, UseCForm: true, Visits: visits, Machine: d})
		out.Rows = append(out.Rows, AblationRow{
			Label:  fmt.Sprintf("+%d cycles", lat),
			Cycles: r.Cycles,
			Note:   fmt.Sprintf("%d spills, %d fills", r.Spills, r.Fills),
		})
	}
	finish(&out)
	return out
}

// AblationNonTemporalCForm compares temporal vs non-temporal CFORMs
// on free (§6.1 footnote: deallocated lines should not pollute the
// L1). Uses the clean-before-use protocol where frees caliform whole
// objects, making the effect visible.
func AblationNonTemporalCForm(visits int, run func(workload.Spec, RunConfig) Result) AblationResult {
	spec, _ := workload.ByName("perlbench")
	out := AblationResult{Name: "non-temporal CFORM on free (perlbench, clean-before-use heap)"}
	for _, nt := range []bool{false, true} {
		heapCfg := alloc.DefaultConfig()
		heapCfg.Protocol = alloc.ProtocolClean
		heapCfg.NonTemporalFree = nt
		r := run(spec, RunConfig{Policy: PolicyOpportunistic, UseCForm: true, Visits: visits, Heap: &heapCfg})
		label := "temporal CFORM"
		if nt {
			label = "non-temporal CFORM"
		}
		out.Rows = append(out.Rows, AblationRow{
			Label:  label,
			Cycles: r.Cycles,
			Note:   fmt.Sprintf("L1 miss rate %.4f", r.L1MissRate),
		})
	}
	finish(&out)
	return out
}

// AblationQuarantine sweeps the quarantine budget: larger budgets
// widen the temporal-safety window (freed memory stays blacklisted
// longer) at the cost of heap growth.
func AblationQuarantine(visits int, run func(workload.Spec, RunConfig) Result) AblationResult {
	spec, _ := workload.ByName("perlbench")
	out := AblationResult{Name: "quarantine budget (perlbench, clean-before-use heap)"}
	for _, frac := range []float64{0, 0.25, 0.5} {
		heapCfg := alloc.DefaultConfig()
		heapCfg.Protocol = alloc.ProtocolClean
		heapCfg.QuarantineFrac = frac
		r := run(spec, RunConfig{Policy: PolicyOpportunistic, UseCForm: true, Visits: visits, Heap: &heapCfg})
		out.Rows = append(out.Rows, AblationRow{
			Label:  fmt.Sprintf("%.0f%% of heap", frac*100),
			Cycles: r.Cycles,
			Note:   fmt.Sprintf("heap %dKB", r.HeapBytes>>10),
		})
	}
	finish(&out)
	return out
}

// AblationMLP sweeps the core's MSHR count on the pointer-chasing
// kernel vs a streaming one: the dependent-load serialization that
// differentiates them is the mechanism behind the per-benchmark
// spread of Figure 10.
func AblationMLP(visits int, run func(workload.Spec, RunConfig) Result) AblationResult {
	out := AblationResult{Name: "MSHR count (memory-level parallelism)"}
	for _, name := range []string{"mcf", "libquantum"} {
		spec, _ := workload.ByName(name)
		for _, mshrs := range []int{1, 4, 10} {
			d := machine.Default()
			d.Core.MSHRs = mshrs
			r := run(spec, RunConfig{Policy: PolicyNone, Visits: visits, Machine: d})
			out.Rows = append(out.Rows, AblationRow{
				Label:  fmt.Sprintf("%s, %d MSHRs", name, mshrs),
				Cycles: r.Cycles,
				Note:   fmt.Sprintf("IPC %.2f", r.IPC()),
			})
		}
	}
	// Slowdowns relative to the first row are not meaningful across
	// two benchmarks; report vs each benchmark's own best instead.
	for i := range out.Rows {
		baseIdx := (i / 3) * 3
		best := out.Rows[baseIdx+2].Cycles
		out.Rows[i].Slowdown = stats.Slowdown(best, out.Rows[i].Cycles)
	}
	return out
}

// AblationL1Variant translates the Table 7 VLSI delay overheads of
// the three L1 metadata formats into end-to-end slowdown: the 8B
// bitvector keeps the 4-cycle L1 (its +1.8% delay fits the existing
// period), while califorms-1B (+22%) and califorms-4B (+49%) push the
// L1 to 5 and 6 cycles respectively. This is the system-level
// argument for spending the extra metadata SRAM.
func AblationL1Variant(visits int, run func(workload.Spec, RunConfig) Result) AblationResult {
	spec, _ := workload.ByName("xalancbmk")
	out := AblationResult{Name: "L1 metadata format (xalancbmk, full 1-7B + CFORM; Table 7 delays as cycles)"}
	for _, v := range []struct {
		label   string
		latency int
	}{
		{"califorms-8B (4cy L1)", 4},
		{"califorms-1B (5cy L1)", 5},
		{"califorms-4B (6cy L1)", 6},
	} {
		d := machine.Default()
		d.Hier.L1.Latency = v.latency
		r := run(spec, RunConfig{Policy: PolicyFull, MinPad: 1, MaxPad: 7, UseCForm: true, Visits: visits, Machine: d})
		out.Rows = append(out.Rows, AblationRow{
			Label:  v.label,
			Cycles: r.Cycles,
			Note:   fmt.Sprintf("IPC %.2f", r.IPC()),
		})
	}
	finish(&out)
	return out
}

// AblationSweeps returns every registered sweep in report order; the
// harness ablations experiment iterates this list, so a new sweep
// added here shows up in `califorms-bench -exp ablations`
// automatically. Each sweep executes its configuration points through
// run: Run itself, or a caller's wrapper that serves repeat points
// from a store.
func AblationSweeps() []func(visits int, run func(workload.Spec, RunConfig) Result) AblationResult {
	return []func(int, func(workload.Spec, RunConfig) Result) AblationResult{
		AblationSpillFill,
		AblationNonTemporalCForm,
		AblationQuarantine,
		AblationMLP,
		AblationL1Variant,
	}
}
