package harness

// This file registers every table and figure of the paper's
// evaluation as a harness Experiment. Registration order is the
// canonical report order of `califorms-bench -exp all`. The rendering
// keeps the published values side by side with the measured ones
// wherever the paper states them.

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

func init() {
	Register(Experiment{Name: "fig3", Paper: "Figure 3", Title: "struct density histograms (SPEC and V8 corpora)", Run: fig3Run})
	Register(Experiment{Name: "fig4", Paper: "Figure 4", Title: "slowdown with fixed security-byte padding", Run: fig4Run})
	Register(Experiment{Name: "table1", Paper: "Table 1", Title: "CFORM instruction K-map", Run: table1Run})
	Register(Experiment{Name: "table2", Paper: "Table 2", Title: "L1 Califorms VLSI area/delay/power", Run: table2Run})
	Register(Experiment{Name: "table3", Paper: "Table 3", Title: "simulated system configuration", Run: table3Run})
	Register(Experiment{Name: "fig10", Paper: "Figure 10", Title: "slowdown with +1 cycle L2/L3 latency", Run: fig10Run})
	Register(Experiment{Name: "fig11", Paper: "Figure 11", Title: "opportunistic/full insertion policy matrix", Run: fig11Run})
	Register(Experiment{Name: "fig12", Paper: "Figure 12", Title: "intelligent insertion policy matrix", Run: fig12Run})
	Register(Experiment{Name: "table4", Paper: "Table 4", Title: "security comparison vs prior hardware", Run: table4Run})
	Register(Experiment{Name: "table5", Paper: "Table 5", Title: "performance comparison vs prior hardware", Run: table5Run})
	Register(Experiment{Name: "table6", Paper: "Table 6", Title: "implementation complexity comparison", Run: table6Run})
	Register(Experiment{Name: "table7", Paper: "Table 7", Title: "L1 Califorms variants (appendix VLSI)", Run: table7Run})
	Register(Experiment{Name: "security", Paper: "§7.3", Title: "derandomization and BROP analysis", Run: securityRun})
	Register(Experiment{Name: "ablations", Paper: "DESIGN.md §4", Title: "design-choice sweeps", Run: ablationsRun})
}

// fig3Run regenerates the struct-density histograms. The two corpora
// are independent units.
func fig3Run(_ Params, pool *Pool) []Result {
	profiles := []layout.Profile{layout.SPECProfile(), layout.V8Profile()}
	out := make([]Result, len(profiles))
	pool.Map(len(profiles), func(i int) {
		p := profiles[i]
		h := layout.Densities(p.Generate(20000, 1))
		sim.CountWork(uint64(h.Count))
		labels := make([]string, 10)
		vals := make([]float64, 10)
		rows := make([][]string, 10)
		for bi := range h.Bins {
			labels[bi] = fmt.Sprintf("[%.1f,%.1f)", float64(bi)/10, float64(bi+1)/10)
			vals[bi] = h.Bins[bi]
			rows[bi] = []string{labels[bi], fmt.Sprintf("%.4f", h.Bins[bi])}
		}
		title := fmt.Sprintf("Figure 3 (%s): struct density histogram, %d structs", p.Name, h.Count)
		paper := 0.457
		if p.Name == "v8" {
			paper = 0.410
		}
		out[i] = Result{
			Kind:    KindHistogram,
			Title:   title,
			Headers: []string{"density bin", "fraction"},
			Rows:    rows,
			Text: stats.Histogram(title, labels, vals, 50) +
				fmt.Sprintf("\nstructs with >=1 padding byte: %.1f%% (paper: %.1f%%)\n",
					h.PaddedFraction*100, paper*100),
		}
	})
	return out
}

// fig4Run sweeps fixed 1–7B padding under the full policy without
// CFORM: the matrix is benchmark × pad size.
func fig4Run(p Params, pool *Pool) []Result {
	pads := []int{1, 2, 3, 4, 5, 6, 7}
	cfgs := make([]sim.RunConfig, len(pads))
	for i, pad := range pads {
		cfgs[i] = sim.RunConfig{Policy: sim.PolicyFull, FixedPad: pad}
	}
	m := Matrix{Benches: workload.Fig10Set(), Configs: cfgs, Machine: p.Machine, Visits: p.Visits}
	r := m.Run(pool)
	t := Result{
		Kind:    KindTable,
		Machine: p.MachineLabel(),
		Title:   "Figure 4: average slowdown with fixed security-byte padding (full insertion, no CFORM)",
		Headers: []string{"padding", "slowdown", "paper"},
	}
	paper := []string{"3.0%", "~4%", "~5%", "5.4%", "~6%", "~6%", "7.6%"}
	for i, pad := range pads {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%dB", pad), stats.Pct(r.AvgSlowdown(i)), paper[i]})
	}
	return []Result{t}
}

func table1Run(_ Params, _ *Pool) []Result {
	sim.CountWork(2) // K-map rows rendered
	return []Result{{
		Kind:    KindTable,
		Title:   "Table 1: CFORM instruction K-map (semantics verified by internal/cacheline tests)",
		Headers: []string{"initial state", "mask=0 (disallow)", "set, allow", "unset, allow"},
		Rows: [][]string{
			{"regular byte", "regular byte", "security byte", "EXCEPTION"},
			{"security byte", "security byte", "EXCEPTION", "regular byte"},
		},
	}}
}

func table2Run(_ Params, _ *Pool) []Result {
	rows := vlsi.Table7(vlsi.TSMC65())[:2]
	paper := vlsi.PaperTable7()[:2]
	pf, ps := vlsi.PaperFillSpill()
	t := Result{
		Kind:    KindTable,
		Title:   "Table 2: area, delay and power of L1 Califorms (califorms-bitvector), modeled vs paper",
		Headers: []string{"design", "area (GE)", "delay (ns)", "power (mW)", "paper GE", "paper ns", "paper mW"},
	}
	for i, r := range rows {
		t.Rows = append(t.Rows, []string{r.Design.Name,
			fmt.Sprintf("%.0f", r.Design.AreaGE), fmt.Sprintf("%.2f", r.Design.DelayNs), fmt.Sprintf("%.2f", r.Design.PowerMW),
			fmt.Sprintf("%.0f", paper[i].AreaGE), fmt.Sprintf("%.2f", paper[i].DelayNs), fmt.Sprintf("%.2f", paper[i].PowerMW)})
	}
	fill, spill := vlsi.FillModule(vlsi.TSMC65()), vlsi.SpillModule(vlsi.TSMC65())
	t.Rows = append(t.Rows, []string{"Fill module",
		fmt.Sprintf("%.0f", fill.AreaGE), fmt.Sprintf("%.2f", fill.DelayNs), fmt.Sprintf("%.2f", fill.PowerMW),
		fmt.Sprintf("%.0f", pf.AreaGE), fmt.Sprintf("%.2f", pf.DelayNs), fmt.Sprintf("%.2f", pf.PowerMW)})
	t.Rows = append(t.Rows, []string{"Spill module",
		fmt.Sprintf("%.0f", spill.AreaGE), fmt.Sprintf("%.2f", spill.DelayNs), fmt.Sprintf("%.2f", spill.PowerMW),
		fmt.Sprintf("%.0f", ps.AreaGE), fmt.Sprintf("%.2f", ps.DelayNs), fmt.Sprintf("%.2f", ps.PowerMW)})
	over := rows[1].Design.Over(rows[0].Design)
	sim.CountWork(uint64(len(t.Rows))) // VLSI designs modeled
	note := Result{
		Kind: KindText,
		Text: fmt.Sprintf("L1 overheads: area %.2f%% delay %.2f%% power %.2f%% (paper: 18.69%% / 1.85%% / 2.12%%)\n",
			over.AreaPct, over.DelayPct, over.PowerPct),
	}
	return []Result{t, note}
}

// levelDesc renders one cache level the way Table 3 writes it.
func levelDesc(c cache.LevelConfig) string {
	return fmt.Sprintf("%s, %d-way, %d-cycle latency", machine.SizeString(c.Size), c.Ways, c.Latency)
}

func table3Run(p Params, _ *Pool) []Result {
	d := p.Machine.OrDefault()
	cfg := d.Hier
	sim.CountWork(5) // configuration rows rendered
	return []Result{{
		Kind:    KindTable,
		Machine: p.MachineLabel(),
		Title:   "Table 3: simulated system configuration",
		Headers: []string{"component", "configuration"},
		Rows: [][]string{
			{"Core", fmt.Sprintf("%s: %d-wide issue, %d MSHRs, %.0f-cycle ROB window",
				d.CoreModel, d.Core.IssueWidth, d.Core.MSHRs, d.Core.ROBWindow)},
			{"L1 data cache", levelDesc(cfg.L1)},
			{"L2 cache", levelDesc(cfg.L2)},
			{"L3 cache", levelDesc(cfg.L3)},
			{"DRAM", fmt.Sprintf("%d-cycle latency", cfg.MemLatency)},
		},
	}}
}

// fig10Run measures +1 cycle on every L2/L3 access against the
// default machine, one unit per benchmark.
func fig10Run(p Params, pool *Pool) []Result {
	slow := p.Machine.OrDefault()
	slow.Hier.ExtraL2L3 = 1
	m := Matrix{
		Benches: workload.Fig10Set(),
		Configs: []sim.RunConfig{{Policy: sim.PolicyNone, Machine: slow}},
		Machine: p.Machine,
		Visits:  p.Visits,
	}
	r := m.Run(pool)
	t := Result{
		Kind:    KindTable,
		Machine: p.MachineLabel(),
		Title:   "Figure 10: slowdown with +1 cycle L2 and L3 latency (paper avg: 0.83%, range 0.24–1.37%)",
		Headers: []string{"benchmark", "slowdown"},
	}
	for b, spec := range m.Benches {
		t.Rows = append(t.Rows, []string{spec.Name, stats.Pct(r.Slowdown(b, 0))})
	}
	t.Rows = append(t.Rows, []string{"AVG", stats.Pct(r.AvgSlowdown(0))})
	return []Result{t}
}

// Fig11Config labels one configuration column of the Figure 11/12
// policy matrices.
type Fig11Config struct {
	Label    string
	Policy   sim.PolicyChoice
	MaxPad   int
	UseCForm bool
}

// Fig11Configs returns the paper's seven configurations: full policy
// with random 1-3/1-5/1-7B spans without CFORM, opportunistic with
// CFORM, and full 1-3/1-5/1-7B with CFORM.
func Fig11Configs() []Fig11Config {
	return []Fig11Config{
		{Label: "1-3B", Policy: sim.PolicyFull, MaxPad: 3, UseCForm: false},
		{Label: "1-5B", Policy: sim.PolicyFull, MaxPad: 5, UseCForm: false},
		{Label: "1-7B", Policy: sim.PolicyFull, MaxPad: 7, UseCForm: false},
		{Label: "Opportunistic CFORM", Policy: sim.PolicyOpportunistic, UseCForm: true},
		{Label: "1-3B CFORM", Policy: sim.PolicyFull, MaxPad: 3, UseCForm: true},
		{Label: "1-5B CFORM", Policy: sim.PolicyFull, MaxPad: 5, UseCForm: true},
		{Label: "1-7B CFORM", Policy: sim.PolicyFull, MaxPad: 7, UseCForm: true},
	}
}

// Fig12Configs returns the six configurations of Figure 12: the
// intelligent policy with and without CFORM instructions.
func Fig12Configs() []Fig11Config {
	return []Fig11Config{
		{Label: "1-3B", Policy: sim.PolicyIntelligent, MaxPad: 3, UseCForm: false},
		{Label: "1-5B", Policy: sim.PolicyIntelligent, MaxPad: 5, UseCForm: false},
		{Label: "1-7B", Policy: sim.PolicyIntelligent, MaxPad: 7, UseCForm: false},
		{Label: "1-3B CFORM", Policy: sim.PolicyIntelligent, MaxPad: 3, UseCForm: true},
		{Label: "1-5B CFORM", Policy: sim.PolicyIntelligent, MaxPad: 5, UseCForm: true},
		{Label: "1-7B CFORM", Policy: sim.PolicyIntelligent, MaxPad: 7, UseCForm: true},
	}
}

// PolicyMatrix runs the given configuration columns over the Figure
// 11 benchmark set with p.Seeds layout randomizations each (the paper
// builds three binaries per configuration). The result embeds the
// expanded Matrix.
func PolicyMatrix(cfgs []Fig11Config, p Params, pool *Pool) MatrixResult {
	rcs := make([]sim.RunConfig, len(cfgs))
	for i, c := range cfgs {
		rcs[i] = sim.RunConfig{Policy: c.Policy, MinPad: 1, MaxPad: c.MaxPad, UseCForm: c.UseCForm}
	}
	m := Matrix{Benches: workload.Fig11Set(), Configs: rcs, Machine: p.Machine, Seeds: p.Seeds, Visits: p.Visits}
	return m.Run(pool)
}

func policyMatrixResult(title string, cfgs []Fig11Config, paperAvg []string, p Params, pool *Pool) []Result {
	r := PolicyMatrix(cfgs, p, pool)
	headers := []string{"benchmark"}
	for _, c := range cfgs {
		headers = append(headers, c.Label)
	}
	t := Result{Kind: KindTable, Machine: p.MachineLabel(), Title: title, Headers: headers}
	for b, spec := range r.Matrix.Benches {
		row := []string{spec.Name}
		for c := range cfgs {
			row = append(row, stats.Pct(r.Slowdown(b, c)))
		}
		t.Rows = append(t.Rows, row)
	}
	avgRow := []string{"AVG"}
	for c := range cfgs {
		avgRow = append(avgRow, stats.Pct(r.AvgSlowdown(c)))
	}
	t.Rows = append(t.Rows, avgRow)
	if paperAvg != nil {
		t.Rows = append(t.Rows, append([]string{"paper AVG"}, paperAvg...))
	}
	return []Result{t}
}

func fig11Run(p Params, pool *Pool) []Result {
	return policyMatrixResult(
		"Figure 11: slowdown of opportunistic and full insertion policies (random security bytes)",
		Fig11Configs(),
		[]string{"5.5%", "5.6%", "6.5%", "7.9%", "~13%", "~13.5%", "14.0%"},
		p, pool)
}

func fig12Run(p Params, pool *Pool) []Result {
	return policyMatrixResult(
		"Figure 12: slowdown of the intelligent insertion policy",
		Fig12Configs(),
		[]string{"~0.2%", "~0.2%", "0.2%", "~1.5%", "~1.5%", "1.5%"},
		p, pool)
}

func table4Run(_ Params, _ *Pool) []Result {
	t := Result{
		Kind:    KindTable,
		Title:   "Table 4: security comparison against previous hardware techniques",
		Headers: []string{"proposal", "granularity", "intra-object", "binary comp.", "temporal"},
	}
	for _, r := range stats.Table4() {
		t.Rows = append(t.Rows, []string{r.Name, r.Granularity, r.IntraObject, r.BinaryComp, r.Temporal})
	}
	sim.CountWork(uint64(len(t.Rows)))
	return []Result{t}
}

func table5Run(_ Params, _ *Pool) []Result {
	t := Result{
		Kind:    KindTable,
		Title:   "Table 5: performance comparison against previous hardware techniques",
		Headers: []string{"proposal", "metadata", "memory overhead", "perf overhead", "main operations"},
	}
	for _, r := range stats.Table5() {
		t.Rows = append(t.Rows, []string{r.Name, r.MetadataOverhead, r.MemoryOverhead, r.PerfOverhead, r.MainOperations})
	}
	sim.CountWork(uint64(len(t.Rows)))
	return []Result{t}
}

func table6Run(_ Params, _ *Pool) []Result {
	t := Result{
		Kind:    KindTable,
		Title:   "Table 6: implementation complexity comparison",
		Headers: []string{"proposal", "core", "caches/TLB", "memory", "software"},
	}
	for _, r := range stats.Table6() {
		t.Rows = append(t.Rows, []string{r.Name, r.CoreMods, r.CacheTLB, r.Memory, r.Software})
	}
	sim.CountWork(uint64(len(t.Rows)))
	return []Result{t}
}

func table7Run(_ Params, _ *Pool) []Result {
	rows := vlsi.Table7(vlsi.TSMC65())
	paper := vlsi.PaperTable7()
	t := Result{
		Kind:    KindTable,
		Title:   "Table 7: the three L1 Califorms variants, modeled vs paper",
		Headers: []string{"design", "area (GE)", "delay (ns)", "power (mW)", "area ovh", "delay ovh", "paper GE", "paper ns"},
	}
	for i, r := range rows {
		areaOvh, delayOvh := "—", "—"
		if i > 0 {
			areaOvh = fmt.Sprintf("%.2f%%", r.L1.AreaPct)
			delayOvh = fmt.Sprintf("%.2f%%", r.L1.DelayPct)
		}
		t.Rows = append(t.Rows, []string{r.Design.Name,
			fmt.Sprintf("%.0f", r.Design.AreaGE), fmt.Sprintf("%.2f", r.Design.DelayNs), fmt.Sprintf("%.2f", r.Design.PowerMW),
			areaOvh, delayOvh,
			fmt.Sprintf("%.0f", paper[i].AreaGE), fmt.Sprintf("%.2f", paper[i].DelayNs)})
	}
	sim.CountWork(uint64(len(t.Rows)))
	return []Result{t}
}

// securityRun reproduces the §7.3 derandomization analysis: scan
// survival, span-size guessing, and the BROP crash-and-restart
// campaigns (the only simulated part; both campaigns are seeded).
func securityRun(_ Params, pool *Pool) []Result {
	surv := func(p float64, o int) float64 {
		v := 1.0
		for i := 0; i < o; i++ {
			v *= 1 - p
		}
		return v
	}
	t := Result{
		Kind:    KindTable,
		Title:   "Security analysis (§7.3): memory-scan survival probability (1 - P/N)^O",
		Headers: []string{"objects scanned", "P/N=5%", "P/N=10%", "P/N=20%"},
	}
	for _, o := range []int{1, 10, 50, 100, 250} {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", o),
			fmt.Sprintf("%.2e", surv(0.05, o)),
			fmt.Sprintf("%.2e", surv(0.10, o)),
			fmt.Sprintf("%.2e", surv(0.20, o))})
	}

	guessText := "Span-size guessing probability 1/7^n (1–7B random spans):\n"
	for _, n := range []int{1, 2, 4, 8} {
		g := 1.0
		for i := 0; i < n; i++ {
			g /= 7
		}
		guessText += fmt.Sprintf("  n=%d: %.3e\n", n, g)
	}

	// The two BROP campaigns are independent Monte Carlo units; each
	// runs 50 trial campaigns with a 200-crash budget.
	crashes := make([]float64, 2)
	pool.Map(2, func(i int) {
		sim.CountWork(50 * 200)
		if i == 0 {
			crashes[0] = attack.ExpectedBROPCrashes(4, 7, false, 200, 50, 1)
		} else {
			crashes[1] = attack.ExpectedBROPCrashes(4, 7, true, 200, 50, 2)
		}
	})
	bropText := "BROP crash-and-restart campaigns (4 spans, 1-7B, 200-crash budget):\n" +
		fmt.Sprintf("  static layout (restart-after-crash): mean %.1f crashes to success\n", crashes[0]) +
		fmt.Sprintf("  re-randomized on respawn (the paper's mitigation): mean %.1f crashes, mostly budget-exhausted\n", crashes[1])

	return []Result{
		t,
		{Kind: KindText, Text: guessText},
		{Kind: KindText, Text: bropText},
	}
}

// ablationsRun serves the five design-choice sweeps of DESIGN.md §4
// as the cells of one stream table, then folds each sweep's rows. A
// run two sweeps share is one cell (points are deduplicated by
// sim.RunKey), and points that differ only in their machine share one
// generation pass. The sweeps stay pinned to the Table 3 machine
// regardless of Params.Machine: they are design-choice studies
// anchored to the paper's configuration, not machine sweeps.
func ablationsRun(p Params, pool *Pool) []Result {
	sweeps := sim.Ablations(p.Visits)
	var cells []cellRun
	cellOf := make(map[string]int)       // run key → cell
	points := make([][]int, len(sweeps)) // points[a][i]: the cell of sweep a's point i
	for a, sweep := range sweeps {
		for _, pt := range sweep.Points {
			key := sim.RunKey(pt.Spec, pt.RC)
			if _, ok := cellOf[key]; !ok {
				cellOf[key] = len(cells)
				cells = append(cells, cellRun{spec: pt.Spec, rc: pt.RC})
			}
			points[a] = append(points[a], cellOf[key])
		}
	}
	results := make([]sim.Result, len(cells))
	newTable(pool, false).serve(cells, func(c int) string {
		sum := sha256.Sum256([]byte(sim.RunKey(cells[c].spec, cells[c].rc)))
		return fmt.Sprintf("ablation/%s/%x", cells[c].spec.Name, sum[:4])
	}, func(c int, r sim.Result) { results[c] = r })

	out := make([]Result, len(sweeps))
	for a, sweep := range sweeps {
		rs := make([]sim.Result, len(points[a]))
		for i, c := range points[a] {
			rs[i] = results[c]
		}
		out[a] = Result{Kind: KindTable, Title: "Ablation: " + sweep.Name, Headers: []string{"config", "cycles", "vs first", "note"}}
		for _, row := range sweep.Rows(rs) {
			out[a].Rows = append(out[a].Rows, []string{row.Label, fmt.Sprintf("%.0f", row.Cycles), stats.Pct(row.Slowdown), row.Note})
		}
	}
	return out
}
