package main

// The benchmark's self-test: at tiny size (visits in the hundreds, a
// handful of jobs) it derives every pin from califorms-bench itself,
// then runs all three workloads end to end — gated through the one
// command, and traced — and checks the output contract, the metric
// names and units against BENCHMARK.json, and that a wrong pin fails
// the run. Heap warm-up dominates a sweep cell at any visit count, so
// the whole test takes a few minutes on two cores. `go test -run
// TestPinsMatchCLI -full` checks the built-in full-size pins the same
// way.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

var fullPinsFlag = flag.Bool("full", false, "also check the built-in full-size pins against califorms-bench")

// binaries are built once per test process.
var binaries struct {
	dir, cli, bench string
	err             error
}

func buildBinaries(t *testing.T) (cli, bench string) {
	t.Helper()
	if binaries.dir == "" && binaries.err == nil {
		binaries.dir, binaries.err = os.MkdirTemp("", "perfbench-test-")
		if binaries.err == nil {
			binaries.cli = filepath.Join(binaries.dir, "califorms-bench")
			binaries.bench = filepath.Join(binaries.dir, "perfbench")
			for _, b := range [][2]string{{binaries.cli, "repro/cmd/califorms-bench"}, {binaries.bench, "."}} {
				if out, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput(); err != nil {
					binaries.err = fmt.Errorf("go build %s: %v\n%s", b[1], err, out)
					break
				}
			}
		}
	}
	if binaries.err != nil {
		t.Fatal(binaries.err)
	}
	return binaries.cli, binaries.bench
}

func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	if binaries.dir != "" {
		os.RemoveAll(binaries.dir)
	}
	os.Exit(code)
}

// runCmd runs a command and returns its stdout and stderr; a non-zero
// exit fails the test.
func runCmd(t *testing.T, name string, args ...string) (stdout, stderr []byte) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(name, args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(name), strings.Join(args, " "), err, e.Bytes())
	}
	return o.Bytes(), e.Bytes()
}

// cliSweepPin derives a sweep's pins from califorms-bench: the report
// digest and cell count from report mode with -progress, puts from the
// store summary, generation passes and instructions from -perf.
func cliSweepPin(t *testing.T, cli string, exps []string, visits int, withStore bool) sweepPin {
	dir := t.TempDir()
	common := []string{"-exp", strings.Join(exps, ","), "-visits", strconv.Itoa(visits), "-workers", "2"}
	args := append([]string{"-progress"}, common...)
	if withStore {
		args = append(args, "-store", filepath.Join(dir, "report-store"))
	}
	stdout, stderr := runCmd(t, cli, args...)
	pin := sweepPin{Digest: digest(stdout), Cells: lastProgressTotal(t, stderr)}
	if withStore {
		pin.Puts = storePuts(t, stderr)
	}
	pin.GenPasses, pin.Instr = cliPerf(t, cli, common, withStore, dir)
	return pin
}

// cliPerf returns a -perf run's total generation passes and simulated
// instructions.
func cliPerf(t *testing.T, cli string, common []string, withStore bool, dir string) (gen, instr uint64) {
	out := filepath.Join(dir, "perf.json")
	args := append([]string{"-perf", "-perf-out", out}, common...)
	if withStore {
		args = append(args, "-store", filepath.Join(dir, "perf-store"))
	}
	runCmd(t, cli, args...)
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		TotalOps       uint64 `json:"total_ops"`
		TotalGenPasses uint64 `json:"total_gen_passes"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return rep.TotalGenPasses, rep.TotalOps
}

func lastProgressTotal(t *testing.T, stderr []byte) uint64 {
	var total uint64
	var found bool
	sc := bufio.NewScanner(bytes.NewReader(stderr))
	for sc.Scan() {
		var done, tot uint64
		if _, err := fmt.Sscanf(sc.Text(), "[progress: %d/%d cells]", &done, &tot); err == nil {
			total, found = tot, true
		}
	}
	if !found {
		t.Fatalf("no progress line in:\n%s", stderr)
	}
	return total
}

func storePuts(t *testing.T, stderr []byte) uint64 {
	sc := bufio.NewScanner(bytes.NewReader(stderr))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "[store ") {
			continue
		}
		var hits, misses, puts uint64
		_, rest, _ := strings.Cut(line, ": ")
		if _, err := fmt.Sscanf(rest, "%d hits, %d misses, %d puts", &hits, &misses, &puts); err == nil {
			return puts
		}
	}
	t.Fatalf("no store summary in:\n%s", stderr)
	return 0
}

// cliPins derives every pin of a size from califorms-bench.
func cliPins(t *testing.T, cli string, size sizeSpec) pinSet {
	p := pinSet{
		PolicyCold:  cliSweepPin(t, cli, sweeps["policy-cold"].exps, size.SweepVisits, false),
		FanoutStore: cliSweepPin(t, cli, sweeps["fanout-store"].exps, size.SweepVisits, true),
	}
	common := []string{"-exp", strings.Join(serviceExps, ","), "-visits", strconv.Itoa(size.ServiceVisits), "-workers", "2"}
	p.ServiceWarm.Digests = make(map[string]string)
	for _, f := range []string{"text", "json", "csv", "markdown"} {
		stdout, stderr := runCmd(t, cli, append([]string{"-progress", "-format", f}, common...)...)
		p.ServiceWarm.Digests[f] = digest(stdout)
		p.ServiceWarm.Cells = lastProgressTotal(t, stderr)
	}
	// The service's set-up job runs cold against the service's store.
	p.ServiceWarm.GenPasses, p.ServiceWarm.Instr = cliPerf(t, cli, common, true, t.TempDir())
	return p
}

// tiny holds the tiny-size pins, derived once per test process and
// written to the file the benchmark reads with -pins.
var tiny struct {
	pins pinSet
	file string
}

func tinyPinsFile(t *testing.T) (pinSet, string) {
	t.Helper()
	cli, _ := buildBinaries(t)
	if tiny.file == "" {
		tiny.pins = cliPins(t, cli, sizes["tiny"])
		data, err := json.Marshal(tiny.pins)
		if err != nil {
			t.Fatal(err)
		}
		tiny.file = filepath.Join(binaries.dir, "tiny-pins.json")
		if err := os.WriteFile(tiny.file, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return tiny.pins, tiny.file
}

func TestPinsMatchCLI(t *testing.T) {
	cli, _ := buildBinaries(t)
	if *fullPinsFlag {
		if got := cliPins(t, cli, sizes["full"]); !reflect.DeepEqual(got, fullPins) {
			t.Errorf("full-size pins differ from califorms-bench:\n got %+v\nwant %+v", got, fullPins)
		}
	}
	p, _ := tinyPinsFile(t)
	// Generation passes do not depend on the visit count: policy-cold
	// generates each of its 240 cells' streams; fanout-store generates
	// sens-machine's 57 and reads rate4's 10 back from the store.
	if p.PolicyCold.GenPasses != 240 || p.FanoutStore.GenPasses != 57 {
		t.Errorf("generation passes %d/%d, want 240/57 at any size", p.PolicyCold.GenPasses, p.FanoutStore.GenPasses)
	}
}

// benchDoc is the part of BENCHMARK.json the test checks.
type benchDoc struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchDoc(t *testing.T) benchDoc {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d benchDoc
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// runBench runs the benchmark and decodes its last line.
func runBench(t *testing.T, bench string, wantExit int, args ...string) result {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(bench, append([]string{"-size", "tiny", "-seconds", "0.3", "-dir", t.TempDir()}, args...)...)
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	if code != wantExit {
		t.Fatalf("perfbench %v: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", args, code, wantExit, o.Bytes(), e.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(o.String()), "\n")
	var r result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r
}

// checkNames requires exactly the declared metrics, with their units.
func checkNames(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: %s unit %q, want %q", what, w.Name, m.Unit, w.Unit)
		}
	}
}

func TestAllWorkloadsOneCommand(t *testing.T) {
	_, bench := buildBinaries(t)
	_, pinsFile := tinyPinsFile(t)
	r := runBench(t, bench, 0, "-pins", pinsFile, "-workload", "all", "-seed", "7")
	if !r.Correct || r.Failed != 0 || r.Attempted < len(workloadNames) {
		t.Errorf("all: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	doc := readBenchDoc(t)
	for _, w := range workloadNames {
		got := make(map[string]metric)
		for n, m := range r.Metrics {
			if name, ok := strings.CutPrefix(n, w+"/"); ok {
				got[name] = m
			}
		}
		checkNames(t, w, got, doc.EndToEnd)
		for n, m := range got {
			if !(m.Value > 0) {
				t.Errorf("%s/%s = %v, want > 0", w, n, m.Value)
			}
		}
	}
}

func TestTracedTiny(t *testing.T) {
	_, bench := buildBinaries(t)
	_, pinsFile := tinyPinsFile(t)
	doc := readBenchDoc(t)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			r := runBench(t, bench, 0, "-pins", pinsFile, "-workload", w, "-seed", "7", "-trace", "1")
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("traced run: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
			}
			checkNames(t, "traced", r.Metrics, doc.PerLayer)
		})
	}
}

func TestWrongPinFails(t *testing.T) {
	_, bench := buildBinaries(t)
	p, _ := tinyPinsFile(t)
	p.PolicyCold.Digest = strings.Repeat("0", 64)
	p.ServiceWarm.Digests = map[string]string{"text": p.ServiceWarm.Digests["text"]}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad-pins.json")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"policy-cold", "service-warm"} {
		r := runBench(t, bench, 1, "-pins", bad, "-workload", w)
		if r.Correct || r.Failed < 1 {
			t.Errorf("%s with a wrong pin: correct=%v failed=%d, want a failed run", w, r.Correct, r.Failed)
		}
	}
}
