// Command califorms-bench regenerates every table and figure of the
// Califorms paper's evaluation (§2, §8, Appendix A) via the
// internal/harness experiment registry and prints them side by side
// with the published values where applicable.
//
// Usage:
//
//	califorms-bench -exp fig3|fig4|fig10|fig11|fig12|table1..table7|security|ablations|
//	                     mix2|mix4|rate4|rate8|sens-machine|sens-llc|all — or a comma
//	                     list with globs, e.g. -exp 'fig4,mix*,sens-*'
//	                [-visits N] [-seeds N] [-workers N] [-format text|json|csv|markdown]
//	                [-machine westmere|skylake|embedded|server] [-list] [-list-machines]
//	                [-progress] [-store DIR [-store-readonly] [-store-gc BYTES]]
//	                [-journal FILE [-resume]] [-cell-timeout D]
//	                [-fault-seed N -fault-rate R [-fault-points GLOBS]]
//
// -list -format json (and -list-machines -format json) emit the
// machine-readable registry listings — the same encoder that backs the
// server's GET /v1/experiments and GET /v1/machines. -progress prints
// throttled `cells done/total` lines to stderr while a sweep runs;
// stdout bytes are untouched.
//
//	califorms-bench -perf [-exp ...] [-perf-out BENCH_califorms.json]
//	                [-perf-baseline BENCH_califorms.json] [-perf-gate 15]
//	califorms-bench -perf-diff old.json new.json
//	califorms-bench -calibrate [-exp ...] [-calib-out CALIB_califorms.json]
//	                [-calib-baseline CALIB_califorms.json] [-calib-gate]
//	                [-format text|json|csv|markdown]
//	califorms-bench -calib-diff old.json new.json
//
// -visits scales the measured steady-state region of each benchmark
// kernel (default 30000 object visits); -seeds sets how many layout
// randomizations ("binaries") are averaged for Figures 11/12.
// -workers sizes the simulation worker pool (default GOMAXPROCS);
// output is byte-identical at any worker count. -machine rebases the
// sweeps on a registry machine (default: the Table 3 westmere).
// Three experiment families do not follow it: sens-machine sweeps the
// whole registry, sens-llc sweeps LLC variants of the selected base,
// and the ablations stay pinned to the Table 3 machine (they are
// design-choice sweeps anchored to the paper's configuration).
// Records measured on a non-default machine carry it as a column in
// the JSON/CSV output. Per-experiment timing goes to stderr so stdout
// stays a clean report.
//
// -store points every mode at a content-addressed result store
// (internal/store): finished cell results, captured op streams and
// multicore mix results are persisted there and reused by later runs
// — a repeated sweep is a pure lookup, an incremental one (new
// machine, new policy column, more visits) simulates only the delta.
// Output is byte-identical with, without, or half-way through a
// store. -store-readonly serves hits without writing anything (shared
// or cached store directories); -store-gc N prunes the store after a
// successful run: entries from other code versions are removed
// unconditionally, then least-recently-used entries this run did not
// touch are evicted until at most N bytes remain (0 keeps only the
// entries the run touched). A summary of hits, misses and bytes moved
// goes to stderr.
//
// -perf switches to measurement mode: instead of emitting the
// experiment reports, it measures each selected experiment's
// work-unit throughput and per-stage CPU cost (setup, direct
// simulation, trace capture, trace replay), plus the generation-pass
// count and store traffic (see internal/perf for the v4 schema),
// writes the result to -perf-out (the BENCH_califorms.json
// trajectory file), and — when -perf-baseline is given — exits
// non-zero if any experiment's ops/sec regressed more than -perf-gate
// percent against the baseline report.
//
// -perf-diff compares two measurement reports and prints a
// per-experiment delta table (ops/sec, wall time, capture/replay
// split) as GitHub-flavored markdown, for PR descriptions and the CI
// job summary.
//
// -calibrate switches to scientific-accuracy mode: it runs the
// calibration-covered subset of the selected experiments, scores the
// measured series against the paper's published numbers (MAPE,
// Pearson/Spearman correlation, sign agreement per figure), evaluates
// the beyond-paper envelope invariants, prints the report in -format
// (text, markdown, csv or json), and writes the JSON document to
// -calib-out (CALIB_califorms.json, see internal/calibrate for the
// schema). With -calib-baseline it compares the fresh scores against
// the committed baseline using the per-figure tolerances of the data
// layer; with -calib-gate any violation exits non-zero — the CI
// accuracy gate. Scores are deterministic at any -workers width, so
// the gate requires matching visits/seeds/machine but not workers.
//
// -calib-diff compares two calibration reports and prints per-figure
// metric deltas plus the envelope verdicts as GitHub-flavored
// markdown.
//
// Robustness (see DESIGN.md §17): -journal FILE checkpoints every
// completed cell of a report-mode sweep into an append-only journal;
// SIGINT/SIGTERM drain the worker pool gracefully (in-flight cells
// finish, queued cells are dropped, store and journal stay flushed)
// and the run exits resumable; -resume picks the sweep back up from
// the journal, producing byte-identical output to an uninterrupted
// run. -cell-timeout D arms a per-cell watchdog that marks runaway
// cells failed-timeout. -fault-seed/-fault-rate/-fault-points arm the
// deterministic fault-injection harness (internal/faultinject) for
// chaos testing. -kill-after N is the crash-test hook: the process
// SIGTERMs itself after N journaled cells.
//
// Exit codes: 0 on success, 1 when the work itself fails (a perf or
// calibration gate violation, an unreadable baseline, an I/O error),
// 2 for usage errors (unknown flags, experiments, machines or
// formats), 3 for partial failure — some cells failed or the sweep
// was interrupted — so CI and scripts can tell "the gate tripped"
// from "the invocation was wrong" from "rerun or resume me".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/calibrate"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/perf"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// progressPrinter returns a pool progress observer that prints
// "cells done/total" lines to w, throttled to roughly four lines per
// second plus one whenever the counts catch up with each other (the
// total grows as experiments schedule their matrices). It only ever
// writes to w — with -progress on stderr, stdout bytes are untouched.
func progressPrinter(w io.Writer) func(done, total uint64) {
	var mu sync.Mutex
	var last time.Time
	return func(done, total uint64) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if done != total && now.Sub(last) < 250*time.Millisecond {
			return
		}
		last = now
		fmt.Fprintf(w, "[progress: %d/%d cells]\n", done, total)
	}
}

// Exit codes (see the package comment): usage errors are 2, failures
// of the requested work are 1, partial failure (failed cells or an
// interrupted, resumable sweep) is 3.
const (
	exitOK      = 0
	exitFailure = 1
	exitUsage   = 2
	exitPartial = 3
)

// run is main with its environment made explicit, so the exit-code
// contract is testable in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("califorms-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiments to run: comma list of names and globs (see -list), or 'all'")
	visits := fs.Int("visits", 30000, "steady-state object visits per benchmark run")
	seeds := fs.Int("seeds", 1, "layout randomizations averaged per configuration (paper: 3)")
	workers := fs.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
	format := fs.String("format", "text", "output format: text, json, csv, markdown")
	list := fs.Bool("list", false, "list registered experiments and exit (-format json: machine-readable, same encoder as GET /v1/experiments)")
	progress := fs.Bool("progress", false, "print throttled 'cells done/total' progress lines to stderr (stdout bytes are untouched)")
	machineName := fs.String("machine", "", "base machine for the sweeps (default: westmere; see -list-machines)")
	listMachines := fs.Bool("list-machines", false, "list registered machines and exit")
	storeDir := fs.String("store", "", "content-addressed result store directory (empty: no store)")
	storeReadonly := fs.Bool("store-readonly", false, "serve store hits but never write to the store")
	storeGC := fs.Int64("store-gc", -1, "after a successful run, evict untouched store entries down to this many bytes (-1: no GC, 0: keep only touched entries)")
	perfMode := fs.Bool("perf", false, "measure experiment throughput instead of emitting reports")
	perfOut := fs.String("perf-out", "BENCH_califorms.json", "perf mode: where to write the measurement report")
	perfBaseline := fs.String("perf-baseline", "", "perf mode: baseline report to gate against (optional)")
	perfGate := fs.Float64("perf-gate", 15, "perf mode: max tolerated ops/sec regression in percent")
	perfDiff := fs.Bool("perf-diff", false, "compare two measurement reports: -perf-diff old.json new.json")
	calibMode := fs.Bool("calibrate", false, "score experiments against the paper's published numbers instead of emitting reports")
	calibOut := fs.String("calib-out", "CALIB_califorms.json", "calibrate mode: where to write the calibration report")
	calibBaseline := fs.String("calib-baseline", "", "calibrate mode: baseline report to compare against (optional)")
	calibGate := fs.Bool("calib-gate", false, "calibrate mode: exit non-zero on any accuracy violation vs the baseline")
	calibDiff := fs.Bool("calib-diff", false, "compare two calibration reports: -calib-diff old.json new.json")
	journalPath := fs.String("journal", "", "checkpoint journal for the sweep (report mode); every completed cell is recorded for -resume")
	resume := fs.Bool("resume", false, "resume an interrupted sweep from -journal instead of starting fresh")
	killAfter := fs.Uint64("kill-after", 0, "crash-test hook: SIGTERM this process after N journaled cells (requires -journal)")
	cellTimeout := fs.Duration("cell-timeout", 0, "per-cell watchdog deadline; runaway cells are marked failed-timeout (0: off)")
	faultSeed := fs.Int64("fault-seed", 0, "fault injection: decision seed (with -fault-rate)")
	faultRate := fs.Float64("fault-rate", 0, "fault injection: probability in [0,1] that an injection point fires (0: disarmed)")
	faultPoints := fs.String("fault-points", "", "fault injection: comma list of point globs to restrict injection to (e.g. 'store.*,cell.panic')")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	if *perfDiff {
		return runPerfDiff(fs.Args(), stdout, stderr)
	}
	if *calibDiff {
		return runCalibDiff(fs.Args(), stdout, stderr)
	}

	if *list {
		if *format == "json" {
			if err := server.WriteExperimentList(stdout); err != nil {
				fmt.Fprintln(stderr, err)
				return exitFailure
			}
			return exitOK
		}
		for _, e := range harness.Experiments() {
			fmt.Fprintf(stdout, "%-12s %-14s %s\n", e.Name, e.Paper, e.Title)
		}
		return exitOK
	}
	if *listMachines {
		if *format == "json" {
			if err := server.WriteMachineList(stdout); err != nil {
				fmt.Fprintln(stderr, err)
				return exitFailure
			}
			return exitOK
		}
		for _, d := range machine.Machines() {
			fmt.Fprintf(stdout, "%-10s %s\n", d.Name, d.Title)
		}
		return exitOK
	}

	// Validate the whole sweep spec before any simulation runs: a
	// typo'd experiment, machine or format is a usage error and must
	// not cost a sweep. The same SweepSpec.Resolve backs the server's
	// 400 responses, so the CLI and API reject identically.
	spec := harness.SweepSpec{
		Experiments: strings.Split(*exp, ","),
		Visits:      *visits,
		Seeds:       *seeds,
		Machine:     *machineName,
		Format:      *format,
	}
	rspec, err := spec.Resolve()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	names, p := rspec.Names, rspec.Params
	pool := harness.NewPool(*workers)
	if *progress {
		pool.SetProgress(progressPrinter(stderr))
	}
	if (*storeReadonly || *storeGC >= 0) && *storeDir == "" {
		fmt.Fprintln(stderr, "-store-readonly and -store-gc require -store DIR")
		return exitUsage
	}
	if *storeReadonly && *storeGC >= 0 {
		fmt.Fprintln(stderr, "-store-gc cannot run on a read-only store")
		return exitUsage
	}
	if *journalPath == "" && (*resume || *killAfter > 0) {
		fmt.Fprintln(stderr, "-resume and -kill-after require -journal FILE")
		return exitUsage
	}
	if *journalPath != "" && (*perfMode || *calibMode) {
		fmt.Fprintln(stderr, "-journal applies to report mode only")
		return exitUsage
	}
	if *faultRate > 0 {
		var pts []string
		if *faultPoints != "" {
			pts = strings.Split(*faultPoints, ",")
		}
		if err := faultinject.Enable(faultinject.Config{Seed: *faultSeed, Rate: *faultRate, Points: pts}); err != nil {
			fmt.Fprintln(stderr, err)
			return exitUsage
		}
		defer faultinject.Disable()
		fmt.Fprintf(stderr, "[faultinject armed: seed=%d rate=%g points=%q]\n", *faultSeed, *faultRate, *faultPoints)
	}
	if *cellTimeout > 0 {
		sim.SetCellTimeout(*cellTimeout)
		defer sim.SetCellTimeout(0)
	}
	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir, store.Options{ReadOnly: *storeReadonly})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitFailure
		}
		pool.SetStore(st)
	}
	var sj *harness.SweepJournal
	if *journalPath != "" {
		man := rspec.Manifest()
		var backing harness.Store
		if st != nil {
			backing = st
		}
		if *resume {
			sj, err = harness.ResumeSweep(*journalPath, man, backing)
		} else {
			sj, err = harness.NewSweep(*journalPath, man, backing)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitFailure
		}
		defer sj.Close()
		if *resume {
			fmt.Fprintf(stderr, "[journal %s: resuming with %d completed cells]\n", *journalPath, sj.Cells())
		}
		if *killAfter > 0 {
			target := *killAfter
			sj.OnCell(func(n uint64) {
				if n == target {
					fmt.Fprintf(stderr, "[kill-after: %d cells journaled, sending SIGTERM]\n", n)
					syscall.Kill(os.Getpid(), syscall.SIGTERM)
				}
			})
		}
		pool.SetStore(sj)
	}

	// Graceful drain: the first SIGINT/SIGTERM stops dispatching new
	// cells and lets in-flight ones finish (store and journal appends
	// are already durable); a second signal aborts hard.
	var interrupted atomic.Bool
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sigDone := make(chan struct{})
	go func() {
		select {
		case <-sigc:
		case <-sigDone:
			return
		}
		interrupted.Store(true)
		fmt.Fprintln(stderr, "[signal: draining — in-flight cells finish, queued cells drop; repeat to abort hard]")
		pool.Drain()
		select {
		case <-sigc:
			os.Exit(130)
		case <-sigDone:
		}
	}()
	defer func() {
		signal.Stop(sigc)
		close(sigDone)
	}()

	var rc int
	switch {
	case *perfMode:
		rc = runPerf(names, p, pool, *perfOut, *perfBaseline, *perfGate, &interrupted, stderr)
	case *calibMode:
		rc = runCalibrate(names, p, pool, *format, *calibOut, *calibBaseline, *calibGate, &interrupted, stdout, stderr)
	default:
		rc = runReport(names, p, pool, *format, &interrupted, stdout, stderr)
	}
	if rc == exitOK && (interrupted.Load() || pool.FailedCells() > 0) {
		rc = exitPartial
	}

	if st != nil {
		c := st.Counters()
		fmt.Fprintf(stderr, "[store %s: %d hits, %d misses, %d puts, %d bytes read, %d bytes written]\n",
			st.Dir(), c.Hits, c.Misses, c.Puts, c.BytesRead, c.BytesWritten)
		// GC only after a fully successful run: a failed sweep has not
		// proven which entries are still needed.
		if rc == exitOK && *storeGC >= 0 {
			gs, err := st.GC(*storeGC)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return exitFailure
			}
			fmt.Fprintf(stderr, "[store gc: removed %d entries (%d bytes) and %d orphaned version trees]\n",
				gs.RemovedEntries, gs.FreedBytes, gs.RemovedVersions)
		}
	}
	return rc
}

// runReport emits the selected experiments' tables in the chosen
// format — the default mode. An interrupted (drained) sweep emits
// nothing: partial tables would violate the byte-determinism contract,
// and the journaled cells make the rerun cheap.
func runReport(names []string, p harness.Params, pool *harness.Pool, format string, interrupted *atomic.Bool, stdout, stderr io.Writer) int {
	em, err := harness.NewEmitter(format)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	var results []harness.Result
	for _, name := range names {
		if interrupted.Load() {
			break
		}
		e, _ := harness.Get(name)
		start := time.Now()
		results = append(results, harness.Run(e, p, pool)...)
		fmt.Fprintf(stderr, "[%s completed in %v]\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if interrupted.Load() {
		fmt.Fprintln(stderr, "[interrupted: report suppressed; completed cells are journaled/stored — rerun with -resume to finish]")
		return exitPartial
	}
	if err := em.Emit(stdout, results); err != nil {
		fmt.Fprintln(stderr, err)
		return exitFailure
	}
	return exitOK
}

// runPerf measures the named experiments, writes the trajectory
// report, and applies the regression gate when a baseline is given.
func runPerf(names []string, p harness.Params, pool *harness.Pool, out, baselinePath string, gatePct float64, interrupted *atomic.Bool, stderr io.Writer) int {
	report, err := perf.Measure(names, p, pool)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitFailure
	}
	if interrupted.Load() {
		// Never overwrite the committed trajectory file with a drained,
		// partially measured run.
		fmt.Fprintln(stderr, "[interrupted: perf report not written]")
		return exitPartial
	}
	for _, m := range report.Experiments {
		if m.SimOps > 0 {
			fmt.Fprintf(stderr, "[perf %-10s %8.3fs  %12d ops  %10.3g ops/s  %3d gen passes  (cpu: setup %.2fs, sim %.2fs, capture %.2fs, replay %.2fs)]\n",
				m.Name, m.WallSeconds, m.SimOps, m.OpsPerSec, m.GenPasses,
				m.SetupCPUSeconds, m.SimCPUSeconds, m.CaptureCPUSeconds, m.ReplayCPUSeconds)
		} else {
			fmt.Fprintf(stderr, "[perf %-10s %8.3fs  (no work recorded)]\n", m.Name, m.WallSeconds)
		}
	}
	fmt.Fprintf(stderr, "[perf total      %8.3fs  %12d ops  %10.3g ops/s  %3d gen passes]\n",
		report.TotalWallSeconds, report.TotalOps, report.TotalOpsPerSec, report.TotalGenPasses)
	// Read the baseline before writing the fresh report: the default
	// -perf-out is the committed baseline path, and writing first
	// would silently turn the gate into a self-comparison.
	var baseline perf.Report
	if baselinePath != "" {
		baseline, err = perf.Read(baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitFailure
		}
	}
	if err := perf.Write(out, report); err != nil {
		fmt.Fprintln(stderr, err)
		return exitFailure
	}
	fmt.Fprintf(stderr, "[perf report written to %s]\n", out)
	if baselinePath == "" {
		return exitOK
	}
	regs, err := perf.Compare(baseline, report, gatePct)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitFailure
	}
	if len(regs) == 0 {
		fmt.Fprintf(stderr, "[perf gate passed: no experiment regressed more than %.0f%% vs %s]\n", gatePct, baselinePath)
		return exitOK
	}
	fmt.Fprintf(stderr, "perf gate FAILED (tolerance %.0f%% vs %s):\n", gatePct, baselinePath)
	for _, r := range regs {
		fmt.Fprintf(stderr, "  %s\n", r)
	}
	return exitFailure
}

// runCalibrate scores the calibration-covered subset of the named
// experiments against the paper's published numbers, prints the report
// in the chosen format, writes the JSON document, and — when a
// baseline is given — compares against it, exiting non-zero on
// violations if the gate is armed.
func runCalibrate(names []string, p harness.Params, pool *harness.Pool, format, out, baselinePath string, gate bool, interrupted *atomic.Bool, stdout, stderr io.Writer) int {
	var covered, skipped []string
	for _, name := range names {
		if calibrate.Covers(name) {
			covered = append(covered, name)
		} else {
			skipped = append(skipped, name)
		}
	}
	if len(skipped) > 0 {
		fmt.Fprintf(stderr, "[calibrate: skipping %s (no published numbers or envelopes)]\n", strings.Join(skipped, ", "))
	}
	start := time.Now()
	report, err := calibrate.Run(covered, p, pool)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitFailure
	}
	fmt.Fprintf(stderr, "[calibrate: scored %d figures, %d envelopes in %v]\n",
		len(report.Figures), len(report.Envelopes), time.Since(start).Round(time.Millisecond))
	if interrupted.Load() {
		// Never overwrite the committed calibration baseline with a
		// drained, partially scored run.
		fmt.Fprintln(stderr, "[interrupted: calibration report not emitted or written]")
		return exitPartial
	}
	if err := calibrate.Emit(stdout, format, report); err != nil {
		fmt.Fprintln(stderr, err)
		return exitFailure
	}
	// Read the baseline before writing the fresh report: the default
	// -calib-out is the committed baseline path, and writing first
	// would silently turn the gate into a self-comparison.
	var baseline calibrate.Report
	if baselinePath != "" {
		baseline, err = calibrate.Read(baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitFailure
		}
	}
	if err := calibrate.Write(out, report); err != nil {
		fmt.Fprintln(stderr, err)
		return exitFailure
	}
	fmt.Fprintf(stderr, "[calibration report written to %s]\n", out)
	if baselinePath == "" {
		return exitOK
	}
	violations, err := calibrate.Compare(baseline, report)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitFailure
	}
	if len(violations) == 0 {
		fmt.Fprintf(stderr, "[calibration gate passed: accuracy within per-figure tolerances vs %s]\n", baselinePath)
		return exitOK
	}
	fmt.Fprintf(stderr, "calibration gate FAILED vs %s:\n", baselinePath)
	for _, v := range violations {
		fmt.Fprintf(stderr, "  %s\n", v)
	}
	if gate {
		return exitFailure
	}
	fmt.Fprintln(stderr, "[-calib-gate not set: violations reported but not fatal]")
	return exitOK
}

// runCalibDiff prints the markdown delta between two calibration
// reports.
func runCalibDiff(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: califorms-bench -calib-diff old.json new.json")
		return exitUsage
	}
	old, err := calibrate.Read(args[0])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitFailure
	}
	cur, err := calibrate.Read(args[1])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitFailure
	}
	fmt.Fprint(stdout, calibrate.FormatDiff(old, cur))
	return exitOK
}

// runPerfDiff prints the markdown delta table between two reports.
func runPerfDiff(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: califorms-bench -perf-diff old.json new.json")
		return exitUsage
	}
	old, err := perf.Read(args[0])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitFailure
	}
	cur, err := perf.Read(args[1])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitFailure
	}
	fmt.Fprint(stdout, perf.FormatDiff(old, cur))
	return exitOK
}
