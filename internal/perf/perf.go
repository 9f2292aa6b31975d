// Package perf measures the end-to-end throughput of registry
// experiments — work units per wall-clock second plus per-stage CPU
// cost — and reads/writes the BENCH_califorms.json trajectory file
// the CI perf gate consumes.
//
// # BENCH_califorms.json schema (califorms-bench-perf/v4)
//
//	{
//	  "schema":      "califorms-bench-perf/v4",
//	  "go":          "go1.24.x",            // runtime.Version()
//	  "generated":   "2026-07-26T12:00:00Z",// RFC 3339 UTC
//	  "visits":      2000,                  // harness.Params.Visits
//	  "seeds":       1,                     // harness.Params.Seeds
//	  "workers":     2,                     // pool width
//	  "machine":     "skylake",             // -machine override; omitted on default-machine reports
//	  "experiments": [
//	    {
//	      "name":                "fig10",
//	      "wall_seconds":        0.53,  // true critical path of the experiment
//	      "sim_ops":             2535302,
//	      "ops_per_sec":         4.7e6, // sim_ops / wall_seconds
//	      "cpu_seconds":         0.52,  // sum of the stage costs below
//	      "setup_cpu_seconds":   0.01,  // machine + layout build
//	      "sim_cpu_seconds":     0.0,   // per-cell scripted/direct kernel runs
//	      "capture_cpu_seconds": 0.35,  // script capture + stream-generating passes
//	      "replay_cpu_seconds":  0.16,  // sibling machines fed from a captured stream
//	      "machines":            ["westmere"], // machine descriptions built (sorted)
//	      "gen_passes":          12,    // workload generation passes inside the experiment
//	      "store_hits":          34,    // result-store reads served (omitted without -store)
//	      "store_misses":        2,
//	      "store_bytes_read":    123456,
//	      "store_bytes_written": 7890
//	    }, ...
//	  ],
//	  "total_ops":          ...,  // sum of sim_ops
//	  "total_wall_seconds": ...,  // sum of wall_seconds
//	  "total_ops_per_sec":  ...,  // total_ops / total_wall_seconds
//	  "total_gen_passes":   ...   // sum of gen_passes; 0 on a fully warm store
//	}
//
// sim_ops counts the experiment's deterministic work volume: simulated
// measured-region instructions for simulation experiments, and
// declared work units (generated structs, rendered table rows, attack
// trials) for the analytic ones, so no experiment reports zero and
// every one is guarded by the gate's behavior check. It is fixed for a
// given (experiment, visits, seeds); wall_seconds and the derived
// rates are machine-dependent.
//
// v3 adds the machine column: the per-experiment "machines" list names
// every machine description the experiment built — registry names,
// renaming derivations like westmere-llc8M, or "custom" for anonymous
// descriptions. An edited copy that keeps its base's name (fig10's
// +1-cycle column, the ablation variants) reports the base name: the
// list identifies machine families simulated, not parameter edits.
// The report-level "machine" field records a global -machine
// override. Experiments that build no machines (the analytic tables)
// omit the list.
//
// v4 adds the reuse columns: per-experiment gen_passes (workload
// generation passes — the work the content-addressed store exists to
// avoid), the store_* read/write counters when a store is installed,
// and the report-level total_gen_passes the CI store-reuse job gates
// to zero on a warm second run.
//
// v2 replaced v1's ambiguous per-stage "seconds" — per-worker sums
// that could silently exceed the wall clock and read like a
// contradiction — with explicitly labeled *_cpu_seconds plus the
// cpu_seconds total, and documents the semantics: stage figures are
// aggregate worker cost, wall_seconds is the experiment's true
// critical path, and the two are expected to differ on parallel runs. The
// capture/replay split shows how much of the sweep ran as generated
// op streams versus fan-out consumers of an already-generated stream.
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
)

// Schema identifies the report format.
const Schema = "califorms-bench-perf/v4"

// Measurement is one experiment's throughput record.
type Measurement struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	SimOps      uint64  `json:"sim_ops"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	// CPUSeconds is the sum of the stage costs below: time workers
	// spent inside instrumented stages, summed across workers. It can
	// exceed WallSeconds on a multi-worker run (that is the point: it
	// is aggregate stage cost, not the critical path — WallSeconds is)
	// and fall below it when time goes to uninstrumented glue
	// (emitters, folding). Stages are measured as each worker
	// goroutine's wall presence in the stage, which equals CPU time
	// unless the pool is oversubscribed relative to the host's cores.
	CPUSeconds        float64 `json:"cpu_seconds"`
	SetupCPUSeconds   float64 `json:"setup_cpu_seconds"`
	SimCPUSeconds     float64 `json:"sim_cpu_seconds"`
	CaptureCPUSeconds float64 `json:"capture_cpu_seconds"`
	ReplayCPUSeconds  float64 `json:"replay_cpu_seconds"`
	// Machines lists (sorted) the machine-description names the
	// experiment built: registry names, renaming derivations
	// (westmere-llc8M), or "custom" for anonymous descriptions. An
	// edited copy keeping its base's name reports the base name.
	// Empty for experiments that simulate nothing.
	Machines []string `json:"machines,omitempty"`
	// GenPasses counts the workload generation passes the experiment
	// performed (sim.ProbeTotals.GenPasses): zero when every cell was
	// served from the result store or replayed from stored streams.
	GenPasses uint64 `json:"gen_passes"`
	// Store* are the pool's result store's read/write deltas across
	// the experiment; all omitted when the pool has no store.
	StoreHits         uint64 `json:"store_hits,omitempty"`
	StoreMisses       uint64 `json:"store_misses,omitempty"`
	StoreBytesRead    uint64 `json:"store_bytes_read,omitempty"`
	StoreBytesWritten uint64 `json:"store_bytes_written,omitempty"`
}

// Report is the full BENCH_califorms.json document.
type Report struct {
	Schema    string `json:"schema"`
	Go        string `json:"go"`
	Generated string `json:"generated"`
	Visits    int    `json:"visits"`
	Seeds     int    `json:"seeds"`
	Workers   int    `json:"workers"`
	// Machine is the global -machine override the report was measured
	// under ("" = the default westmere).
	Machine          string        `json:"machine,omitempty"`
	Experiments      []Measurement `json:"experiments"`
	TotalOps         uint64        `json:"total_ops"`
	TotalWallSeconds float64       `json:"total_wall_seconds"`
	TotalOpsPerSec   float64       `json:"total_ops_per_sec"`
	// TotalGenPasses sums gen_passes: the store-reuse CI job asserts it
	// is exactly zero on a warm repeat run.
	TotalGenPasses uint64 `json:"total_gen_passes"`
}

// Measure runs each named experiment on the pool, recording wall
// time, work-unit throughput and per-stage CPU cost. The experiments'
// own outputs are discarded: this is the measurement harness, not the
// reporting one.
func Measure(names []string, p harness.Params, pool *harness.Pool) (Report, error) {
	r := Report{
		Schema:    Schema,
		Go:        runtime.Version(),
		Generated: time.Now().UTC().Format(time.RFC3339),
		Visits:    p.Visits,
		Seeds:     p.Seeds,
		Workers:   pool.Workers(),
		Machine:   p.MachineLabel(),
	}
	// counters reads the pool's store's cumulative counters (zero
	// without one); per-experiment columns are window deltas.
	counters := func() store.Counters {
		if s, ok := pool.Store().(interface{ Counters() store.Counters }); ok {
			return s.Counters()
		}
		return store.Counters{}
	}
	for _, name := range names {
		before := counters()
		sim.StartProbe()
		start := time.Now()
		if _, err := harness.RunByName(name, p, pool); err != nil {
			sim.StopProbe()
			return Report{}, err
		}
		wall := time.Since(start).Seconds()
		totals := sim.StopProbe()
		after := counters()
		m := Measurement{
			Name:              name,
			WallSeconds:       wall,
			SimOps:            totals.Ops,
			SetupCPUSeconds:   totals.SetupSeconds,
			SimCPUSeconds:     totals.SimSeconds,
			CaptureCPUSeconds: totals.CaptureSeconds,
			ReplayCPUSeconds:  totals.ReplaySeconds,
			Machines:          totals.Machines,
			GenPasses:         totals.GenPasses,
			StoreHits:         after.Hits - before.Hits,
			StoreMisses:       after.Misses - before.Misses,
			StoreBytesRead:    after.BytesRead - before.BytesRead,
			StoreBytesWritten: after.BytesWritten - before.BytesWritten,
		}
		m.CPUSeconds = m.SetupCPUSeconds + m.SimCPUSeconds + m.CaptureCPUSeconds + m.ReplayCPUSeconds
		if wall > 0 {
			m.OpsPerSec = float64(totals.Ops) / wall
		}
		r.Experiments = append(r.Experiments, m)
		r.TotalOps += totals.Ops
		r.TotalWallSeconds += wall
		r.TotalGenPasses += totals.GenPasses
	}
	if r.TotalWallSeconds > 0 {
		r.TotalOpsPerSec = float64(r.TotalOps) / r.TotalWallSeconds
	}
	return r, nil
}

// Write stores the report as indented JSON. The write is atomic
// (temp file + rename) so a crash mid-write never leaves a truncated
// baseline behind.
func Write(path string, r Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return store.AtomicWriteFile(path, append(data, '\n'), 0o644)
}

// Read loads a report, verifying the schema tag.
func Read(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("perf: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return Report{}, fmt.Errorf("perf: %s: schema %q, want %q (regenerate with califorms-bench -perf)", path, r.Schema, Schema)
	}
	return r, nil
}

// Regression is one gate violation.
type Regression struct {
	Name     string
	Unit     string // "ops/s", "x total" (normalized rate) or "sim ops"
	Baseline float64
	Current  float64
	DropPct  float64
}

func (r Regression) String() string {
	if r.Unit == "sim ops" {
		return fmt.Sprintf("%s: simulated %.0f %s in the baseline but %.0f now — simulation behavior differs, regenerate the baseline",
			r.Name, r.Baseline, r.Unit, r.Current)
	}
	return fmt.Sprintf("%s: %.3g %s -> %.3g %s (-%.1f%%)", r.Name, r.Baseline, r.Unit, r.Current, r.Unit, r.DropPct)
}

// minGateWallSeconds is the floor below which per-experiment rates do
// not gate: a table that renders in microseconds has a rate that is
// all timer noise, and even a ~100ms experiment (fig3) swings 2x
// between a process's first and later measurements. Sub-floor
// experiments still enforce sim_ops equality, so behavior drift in
// tiny experiments is caught regardless; every simulation sweep
// measures well above the floor at the CI gate's parameters.
const minGateWallSeconds = 0.25

// Compare gates current against baseline and returns the violations.
// Two layers, both needed because the two reports may come from
// machines of different speed (a committed baseline vs. a CI runner):
//
//   - Per-experiment rates are compared *normalized by each report's
//     total ops/sec*. A uniformly faster or slower machine scales
//     every experiment alike and cancels out; a localized regression
//     shifts the experiment's share and trips the gate. Experiments
//     whose wall time is below minGateWallSeconds in either report are
//     too noisy to rate-gate and are skipped.
//   - The absolute total ops/sec is compared directly, which catches
//     uniform regressions (for example, undoing the batched path
//     everywhere). This layer is machine-sensitive by nature; the
//     tolerance must absorb expected hardware variance.
//
// A sim_ops mismatch means the two reports simulated different work
// (behavior changed, not speed) and is always a violation. Reports
// measured with different visits/seeds/workers are not comparable at
// all: that is an error, never a silent pass. Experiments present in
// only one report are skipped — the registry may grow.
func Compare(baseline, current Report, tolerancePct float64) ([]Regression, error) {
	if baseline.Visits != current.Visits || baseline.Seeds != current.Seeds || baseline.Workers != current.Workers || baseline.Machine != current.Machine {
		return nil, fmt.Errorf(
			"perf: baseline (visits=%d seeds=%d workers=%d machine=%q) and current (visits=%d seeds=%d workers=%d machine=%q) measured different parameters; regenerate the baseline",
			baseline.Visits, baseline.Seeds, baseline.Workers, baseline.Machine, current.Visits, current.Seeds, current.Workers, current.Machine)
	}
	base := make(map[string]Measurement, len(baseline.Experiments))
	for _, m := range baseline.Experiments {
		base[m.Name] = m
	}
	var regs []Regression
	check := func(name, unit string, b, c float64) {
		if b <= 0 || c >= b*(1-tolerancePct/100) {
			return
		}
		regs = append(regs, Regression{Name: name, Unit: unit, Baseline: b, Current: c, DropPct: (1 - c/b) * 100})
	}
	matched := 0
	for _, m := range current.Experiments {
		bm, ok := base[m.Name]
		if !ok {
			continue
		}
		matched++
		if bm.SimOps == 0 || m.SimOps == 0 {
			continue
		}
		if bm.SimOps != m.SimOps {
			regs = append(regs, Regression{Name: m.Name, Unit: "sim ops",
				Baseline: float64(bm.SimOps), Current: float64(m.SimOps)})
			continue
		}
		if bm.WallSeconds < minGateWallSeconds || m.WallSeconds < minGateWallSeconds {
			continue
		}
		if baseline.TotalOpsPerSec > 0 && current.TotalOpsPerSec > 0 {
			check(m.Name, "x total", bm.OpsPerSec/baseline.TotalOpsPerSec, m.OpsPerSec/current.TotalOpsPerSec)
		}
	}
	// The aggregate rate only gates when both reports measured the
	// same experiment set.
	if matched == len(baseline.Experiments) && matched == len(current.Experiments) {
		check("total", "ops/s", baseline.TotalOpsPerSec, current.TotalOpsPerSec)
	}
	return regs, nil
}

// DiffRow is one experiment's old-vs-new comparison.
type DiffRow struct {
	Name              string
	OldRate, NewRate  float64 // ops/sec; 0 when absent on that side
	OldWall, NewWall  float64
	CaptureCPUSeconds float64 // new report's stage split
	ReplayCPUSeconds  float64
}

// RatePct returns the ops/sec change in percent (+ is faster).
func (d DiffRow) RatePct() float64 {
	if d.OldRate <= 0 {
		return 0
	}
	return (d.NewRate/d.OldRate - 1) * 100
}

// Diff pairs up the experiments of two reports in the new report's
// order, appending a "total" row.
func Diff(old, new Report) []DiffRow {
	base := make(map[string]Measurement, len(old.Experiments))
	for _, m := range old.Experiments {
		base[m.Name] = m
	}
	var rows []DiffRow
	for _, m := range new.Experiments {
		row := DiffRow{
			Name: m.Name, NewRate: m.OpsPerSec, NewWall: m.WallSeconds,
			CaptureCPUSeconds: m.CaptureCPUSeconds, ReplayCPUSeconds: m.ReplayCPUSeconds,
		}
		if bm, ok := base[m.Name]; ok {
			row.OldRate, row.OldWall = bm.OpsPerSec, bm.WallSeconds
		}
		rows = append(rows, row)
	}
	rows = append(rows, DiffRow{
		Name:    "total",
		OldRate: old.TotalOpsPerSec, NewRate: new.TotalOpsPerSec,
		OldWall: old.TotalWallSeconds, NewWall: new.TotalWallSeconds,
	})
	return rows
}

// FormatDiff renders the per-experiment delta table as GitHub-flavored
// markdown — pasteable into a PR description and rendered as-is by
// the CI job's step summary.
func FormatDiff(old, new Report) string {
	var rows [][]string
	for _, d := range Diff(old, new) {
		delta := "—"
		if d.OldRate > 0 && d.NewRate > 0 {
			delta = fmt.Sprintf("%+.1f%%", d.RatePct())
		}
		rate := func(v float64) string {
			if v <= 0 {
				return "—"
			}
			return fmt.Sprintf("%.3g", v)
		}
		rows = append(rows, []string{
			d.Name, rate(d.OldRate), rate(d.NewRate), delta,
			fmt.Sprintf("%.3fs", d.OldWall), fmt.Sprintf("%.3fs", d.NewWall),
			fmt.Sprintf("%.3fs", d.CaptureCPUSeconds), fmt.Sprintf("%.3fs", d.ReplayCPUSeconds),
		})
	}
	return stats.MarkdownTable(
		[]string{"experiment", "ops/sec old", "ops/sec new", "Δ", "wall old", "wall new", "capture cpu", "replay cpu"},
		rows)
}
