package harness

// This file registers the cross-machine sensitivity experiments the
// machine-description layer enables: the same Califorms configurations
// the paper measures on its single Table 3 machine, swept across the
// machine registry (sens-machine) and across LLC sizes (sens-llc).
//
// Both run through Matrix's machine axis, so each benchmark's op
// stream is generated exactly once per configuration and fanned out to
// every machine (the machine never enters sim.StreamOf); adding a
// machine to the registry adds replay consumers, not generation work.
// The init below runs after experiments.go's and mix.go's (file-name
// order), appending the sens experiments to the canonical report
// order without disturbing it.

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	Register(Experiment{Name: "sens-machine", Paper: "DESIGN.md §14", Title: "Califorms overhead across the machine registry", Run: sensMachineRun})
	Register(Experiment{Name: "sens-llc", Paper: "DESIGN.md §14", Title: "Califorms overhead vs LLC size (mix workloads)", Run: sensLLCRun})
}

// sensMachineConfigs are the two columns the machine sweep measures: a
// fig4-style fixed-padding column (full insertion, no CFORM — pure
// cache-footprint cost) and Figure 11's heaviest configuration (random
// 1-7B spans with CFORM traffic).
func sensMachineConfigs() ([]sim.RunConfig, []string) {
	return []sim.RunConfig{
			{Policy: sim.PolicyFull, FixedPad: 4},
			{Policy: sim.PolicyFull, MinPad: 1, MaxPad: 7, UseCForm: true},
		}, []string{
			"full fixed 4B",
			"full 1-7B CFORM",
		}
}

// sensMachineRun sweeps the fig4-style overhead across every machine
// in the registry: one capture per benchmark per configuration, fanned
// out to all machines. The table carries the machine as a row column
// so geometry-driven shifts read top to bottom.
func sensMachineRun(p Params, pool *Pool) []Result {
	cfgs, labels := sensMachineConfigs()
	machines := machine.Machines()
	m := Matrix{
		Benches:  workload.Fig10Set(),
		Configs:  cfgs,
		Machines: machines,
		Seeds:    p.Seeds,
		Visits:   p.Visits,
	}
	r := m.Run(pool)

	headers := []string{"machine", "L2", "L3", "benchmark"}
	headers = append(headers, labels...)
	t := Result{
		Kind:    KindTable,
		Title:   "Machine sensitivity: Califorms slowdown across the machine registry (fig4-style fixed pads and full 1-7B CFORM)",
		Headers: headers,
	}
	for mi, d := range machines {
		for b, spec := range m.Benches {
			row := []string{d.Name, machine.SizeString(d.Hier.L2.Size), machine.SizeString(d.Hier.L3.Size), spec.Name}
			for c := range cfgs {
				row = append(row, stats.Pct(r.SlowdownAt(b, c, mi)))
			}
			t.Rows = append(t.Rows, row)
		}
		row := []string{d.Name, machine.SizeString(d.Hier.L2.Size), machine.SizeString(d.Hier.L3.Size), "AVG"}
		for c := range cfgs {
			row = append(row, stats.Pct(r.AvgSlowdownAt(c, mi)))
		}
		t.Rows = append(t.Rows, row)
	}

	summary := Result{
		Kind:    KindTable,
		Title:   "Machine sensitivity summary: average slowdown per machine",
		Headers: append([]string{"machine"}, labels...),
	}
	for mi, d := range machines {
		row := []string{d.Name}
		for c := range cfgs {
			row = append(row, stats.Pct(r.AvgSlowdownAt(c, mi)))
		}
		summary.Rows = append(summary.Rows, row)
	}
	return []Result{t, summary}
}

// sensLLCSizes are the swept last-level-cache capacities, bracketing
// the Table 3 machine's 2MB on both sides.
var sensLLCSizes = []int{512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20}

// sensLLCBenches are the mix-experiment workloads (the rate4 set):
// cache-resident programs whose Califorms overhead the multicore
// mixes showed to be LLC-capacity-sensitive.
var sensLLCBenches = []string{"perlbench", "povray", "gobmk", "sjeng", "astar"}

// sensLLCRun sweeps the full-1-7B-CFORM overhead against LLC size on
// the mix workloads: machine columns are the base machine with only
// the L3 capacity changed, so any overhead shift is purely a
// shared-capacity effect.
func sensLLCRun(p Params, pool *Pool) []Result {
	base := p.Machine.OrDefault()
	machines := make([]machine.Desc, len(sensLLCSizes))
	for i, size := range sensLLCSizes {
		machines[i] = base.WithL3Size(size)
	}
	specs := make([]workload.Spec, len(sensLLCBenches))
	for i, name := range sensLLCBenches {
		spec, ok := workload.ByName(name)
		if !ok {
			panic("harness: unknown sens-llc benchmark " + name)
		}
		specs[i] = spec
	}
	m := Matrix{
		Benches:  specs,
		Configs:  []sim.RunConfig{{Policy: sim.PolicyFull, MinPad: 1, MaxPad: 7, UseCForm: true}},
		Machines: machines,
		Seeds:    p.Seeds,
		Visits:   p.Visits,
	}
	r := m.Run(pool)

	headers := []string{"benchmark"}
	for _, size := range sensLLCSizes {
		headers = append(headers, machine.SizeString(size))
	}
	t := Result{
		Kind:    KindTable,
		Title:   fmt.Sprintf("LLC sensitivity: full 1-7B CFORM slowdown vs L3 capacity (%s geometry otherwise)", base.Name),
		Headers: headers,
	}
	for b, spec := range specs {
		row := []string{spec.Name}
		for mi := range machines {
			row = append(row, stats.Pct(r.SlowdownAt(b, 0, mi)))
		}
		t.Rows = append(t.Rows, row)
	}
	avgRow := []string{"AVG"}
	for mi := range machines {
		avgRow = append(avgRow, stats.Pct(r.AvgSlowdownAt(0, mi)))
	}
	t.Rows = append(t.Rows, avgRow)
	return []Result{t}
}
