package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/perf"
	"repro/internal/sim"
)

// runCLI invokes run with captured streams.
func runCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestUsageErrorsExitTwo: every way of invoking the tool wrongly must
// exit 2, reserving 1 for work that ran and failed.
func TestUsageErrorsExitTwo(t *testing.T) {
	cases := map[string][]string{
		"unknown flag":            {"-definitely-not-a-flag"},
		"unknown experiment":      {"-exp", "nope"},
		"empty selection":         {"-exp", ","},
		"bad glob":                {"-exp", "fig[3"},
		"unknown machine":         {"-machine", "pdp11"},
		"bad report format":       {"-exp", "table1", "-format", "yaml"},
		"bad calibrate format":    {"-calibrate", "-exp", "table1", "-format", "yaml"},
		"perf-diff missing args":  {"-perf-diff", "only-one.json"},
		"calib-diff missing args": {"-calib-diff"},
		"store-readonly no dir":   {"-store-readonly", "-exp", "table1"},
		"store-gc no dir":         {"-store-gc", "0", "-exp", "table1"},
		"store-gc readonly":       {"-store", "x", "-store-readonly", "-store-gc", "0", "-exp", "table1"},
		"resume no journal":       {"-resume", "-exp", "table1"},
		"kill-after no journal":   {"-kill-after", "3", "-exp", "table1"},
		"journal in perf mode":    {"-perf", "-journal", "x.journal", "-exp", "table1"},
		"journal in calibrate":    {"-calibrate", "-journal", "x.journal", "-exp", "table1"},
		"fault rate out of range": {"-fault-rate", "1.5", "-exp", "table1"},
		"bad fault points glob":   {"-fault-rate", "0.5", "-fault-points", "[bad", "-exp", "table1"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			if code, _, _ := runCLI(args...); code != exitUsage {
				t.Errorf("%v exited %d, want %d", args, code, exitUsage)
			}
		})
	}
}

// TestGateFailureExitsOne: a perf gate violation is a failure of the
// measured work (exit 1), not a usage error (regression: several gate
// and I/O failures previously exited 2).
func TestGateFailureExitsOne(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	args := []string{"-perf", "-exp", "table1", "-visits", "50", "-workers", "1", "-perf-out", out}
	if code, _, stderr := runCLI(args...); code != exitOK {
		t.Fatalf("perf measurement exited %d: %s", code, stderr)
	}

	// A baseline that simulated different work always trips the gate.
	base, err := perf.Read(out)
	if err != nil {
		t.Fatal(err)
	}
	base.Experiments[0].SimOps += 12345
	basePath := filepath.Join(dir, "baseline.json")
	if err := perf.Write(basePath, base); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runCLI(append(args, "-perf-baseline", basePath)...); code != exitFailure {
		t.Errorf("tripped gate exited %d, want %d\n%s", code, exitFailure, stderr)
	}

	// An unreadable baseline is also a runtime failure, not misuse.
	if code, _, _ := runCLI(append(args, "-perf-baseline", filepath.Join(dir, "missing.json"))...); code != exitFailure {
		t.Errorf("missing baseline exited %d, want %d", code, exitFailure)
	}
}

// TestStoreFlagsEndToEnd drives -store through the CLI: a warm repeat
// run must emit byte-identical output with zero generation passes, a
// read-only handle must serve it too, and -store-gc must prune and
// exit clean.
func TestStoreFlagsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "fig4", "-visits", "100", "-workers", "1", "-format", "json", "-store", dir}
	code, cold, stderr := runCLI(args...)
	if code != exitOK {
		t.Fatalf("cold store run exited %d: %s", code, stderr)
	}
	before := sim.GenerationPasses()
	code, warm, stderr := runCLI(args...)
	if code != exitOK {
		t.Fatalf("warm store run exited %d: %s", code, stderr)
	}
	if n := sim.GenerationPasses() - before; n != 0 {
		t.Errorf("warm run performed %d generation passes, want 0", n)
	}
	if warm != cold {
		t.Error("warm output differs from cold")
	}
	code, ro, _ := runCLI(append(args, "-store-readonly")...)
	if code != exitOK || ro != cold {
		t.Errorf("read-only run: code %d, output match %v", code, ro == cold)
	}
	if code, _, stderr := runCLI(append(args, "-store-gc", "0")...); code != exitOK {
		t.Errorf("-store-gc run exited %d: %s", code, stderr)
	}
	// The pruned store still serves the sweep it was pruned around.
	before = sim.GenerationPasses()
	if code, again, _ := runCLI(args...); code != exitOK || again != cold {
		t.Error("post-GC run diverged")
	} else if n := sim.GenerationPasses() - before; n != 0 {
		t.Errorf("post-GC run performed %d generation passes, want 0", n)
	}
}

// TestKillResumeByteIdentical is the checkpoint/resume referee: a sweep
// SIGTERM'd mid-run (the -kill-after crash hook) must exit 3 with its
// report suppressed, and a -resume run against the same journal must
// exit 0 with output byte-identical to an uninterrupted reference — in
// every format, at more than one worker count.
func TestKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep 2× per format × worker count plus one reference per format")
	}
	sweep := func(format, workers string) []string {
		return []string{"-exp", "fig3,fig10", "-visits", "200", "-seeds", "2", "-workers", workers, "-format", format}
	}
	// One uninterrupted reference per format: output is worker-count
	// independent by the engine's determinism contract, so a single
	// width serves every comparison.
	refs := make(map[string]string)
	for _, format := range harness.Formats() {
		code, ref, stderr := runCLI(sweep(format, "2")...)
		if code != exitOK {
			t.Fatalf("reference run (%s) exited %d: %s", format, code, stderr)
		}
		refs[format] = ref
	}
	for _, workers := range []string{"1", "8"} {
		for _, format := range harness.Formats() {
			t.Run("workers="+workers+"/"+format, func(t *testing.T) {
				journal := filepath.Join(t.TempDir(), "sweep.journal")
				args := sweep(format, workers)
				ref := refs[format]

				killed := append(args, "-journal", journal, "-kill-after", "1")
				code, out, stderr := runCLI(killed...)
				if code != exitPartial {
					t.Fatalf("killed run exited %d, want %d\n%s", code, exitPartial, stderr)
				}
				if out != "" {
					t.Fatalf("killed run emitted a (necessarily partial) report:\n%s", out)
				}
				if !strings.Contains(stderr, "-resume") {
					t.Fatalf("killed run's stderr does not point at -resume:\n%s", stderr)
				}

				resumed := append(args, "-journal", journal, "-resume")
				code, got, stderr := runCLI(resumed...)
				if code != exitOK {
					t.Fatalf("resumed run exited %d: %s", code, stderr)
				}
				if got != ref {
					t.Fatalf("resumed output diverges from the uninterrupted reference (format %s, workers %s)", format, workers)
				}
				if !strings.Contains(stderr, "resuming with") {
					t.Fatalf("resume did not report journaled cells:\n%s", stderr)
				}
			})
		}
	}
}

// TestResumeRefusesForeignJournal: -resume against a journal written by
// a different invocation (other experiments, visits, format...) must
// refuse instead of serving mismatched results.
func TestResumeRefusesForeignJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	args := []string{"-exp", "fig3", "-visits", "100", "-workers", "1", "-format", "json", "-journal", journal}
	if code, _, stderr := runCLI(args...); code != exitOK {
		t.Fatalf("journaled run exited %d: %s", code, stderr)
	}
	foreign := []string{"-exp", "fig3", "-visits", "999", "-workers", "1", "-format", "json", "-journal", journal, "-resume"}
	code, _, stderr := runCLI(foreign...)
	if code != exitFailure {
		t.Fatalf("foreign resume exited %d, want %d\n%s", code, exitFailure, stderr)
	}
	if !strings.Contains(stderr, "different invocation") {
		t.Fatalf("foreign resume error does not explain the mismatch:\n%s", stderr)
	}
}

// TestInjectedPanicsExitPartial: chaos smoke at the CLI level — with
// cell.panic firing on every decision, the run completes, the report
// carries the FAILED-cells table, and the exit code is 3. A follow-up
// healthy run over the same (storeless) sweep is byte-identical to a
// never-injected one.
func TestInjectedPanicsExitPartial(t *testing.T) {
	args := []string{"-exp", "fig10", "-visits", "100", "-workers", "2", "-format", "json"}
	refCode, ref, _ := runCLI(args...)
	if refCode != exitOK {
		t.Fatalf("reference run exited %d", refCode)
	}
	chaos := append(args, "-fault-seed", "1", "-fault-rate", "1", "-fault-points", "cell.panic")
	code, out, stderr := runCLI(chaos...)
	if code != exitPartial {
		t.Fatalf("all-cells-failed run exited %d, want %d\n%s", code, exitPartial, stderr)
	}
	if !strings.Contains(out, harness.FailedTitle) {
		t.Fatalf("chaos report lacks the FAILED-cells table:\n%s", out)
	}
	if !strings.Contains(stderr, "faultinject armed") {
		t.Fatalf("chaos run did not announce the armed injector:\n%s", stderr)
	}
	// Injection is scoped to the run: the next invocation is healthy.
	if code, again, _ := runCLI(args...); code != exitOK || again != ref {
		t.Fatalf("post-chaos run: code %d, identical %v", code, again == ref)
	}
}

// TestFailedMixUnitsExitPartial: a mix unit that fails leaves a
// FAILED row, not a crash. With every cell panicking, the mix
// experiments still render their tables around the failed units, and
// the run exits 3 with the FAILED-cells table in-band.
func TestFailedMixUnitsExitPartial(t *testing.T) {
	for _, exp := range []string{"mix2", "rate4"} {
		code, out, stderr := runCLI("-exp", exp, "-visits", "100", "-workers", "2", "-format", "json",
			"-fault-seed", "1", "-fault-rate", "1", "-fault-points", "cell.panic")
		if code != exitPartial {
			t.Fatalf("%s: all-cells-failed run exited %d, want %d\n%s", exp, code, exitPartial, stderr)
		}
		if !strings.Contains(out, harness.FailedTitle) || !strings.Contains(out, "mix/") {
			t.Fatalf("%s: report lacks the failed mix units:\n%s", exp, out)
		}
	}
}

// TestFaultySweepConvergesOnWarmStore: the chaos error model end to
// end. Under write faults and cell panics the run exits partial but
// the store never serves a corrupted entry; re-running healthy against
// the same store converges to the uninjected reference bytes.
func TestFaultySweepConvergesOnWarmStore(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "fig10", "-visits", "100", "-workers", "2", "-format", "json", "-store", dir}
	refCode, ref, _ := runCLI("-exp", "fig10", "-visits", "100", "-workers", "2", "-format", "json")
	if refCode != exitOK {
		t.Fatalf("reference run exited %d", refCode)
	}
	chaos := append(args, "-fault-seed", "7", "-fault-rate", "0.3", "-fault-points", "store.write.*,cell.panic")
	code, _, stderr := runCLI(chaos...)
	if code != exitOK && code != exitPartial {
		t.Fatalf("chaos run exited %d, want 0 or %d\n%s", code, exitPartial, stderr)
	}
	code, got, stderr := runCLI(args...)
	if code != exitOK {
		t.Fatalf("recovery run exited %d: %s", code, stderr)
	}
	if got != ref {
		t.Fatal("post-chaos warm run diverges from the uninjected reference")
	}
}

// TestCellTimeoutFlag: an absurdly small watchdog fails every cell
// (exit 3); the same sweep with a generous watchdog is healthy and
// byte-identical to an unguarded run.
func TestCellTimeoutFlag(t *testing.T) {
	args := []string{"-exp", "fig10", "-visits", "100", "-workers", "2", "-format", "json"}
	refCode, ref, _ := runCLI(args...)
	if refCode != exitOK {
		t.Fatalf("reference run exited %d", refCode)
	}
	code, out, stderr := runCLI(append(args, "-cell-timeout", "1ns")...)
	if code != exitPartial {
		t.Fatalf("1ns watchdog run exited %d, want %d\n%s", code, exitPartial, stderr)
	}
	if !strings.Contains(out, "cell exceeded -cell-timeout=1ns") {
		t.Fatalf("timeout report lacks the watchdog error:\n%s", out)
	}
	code, got, _ := runCLI(append(args, "-cell-timeout", "1h")...)
	if code != exitOK || got != ref {
		t.Fatalf("1h watchdog run: code %d, identical %v", code, got == ref)
	}
}

// TestMarkdownFormatEndToEnd: the fourth emitter through the CLI.
func TestMarkdownFormatEndToEnd(t *testing.T) {
	code, out, stderr := runCLI("-exp", "fig3", "-visits", "100", "-workers", "1", "-format", "markdown")
	if code != exitOK {
		t.Fatalf("markdown run exited %d: %s", code, stderr)
	}
	for _, want := range []string{"## fig3", "|---"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown output lacks %q:\n%s", want, out)
		}
	}
}
