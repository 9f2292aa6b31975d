// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three seeded workloads against the simulator's own packages,
// checks every output byte and exact work count against pinned values,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics of a separate traced run) as the last line of stdout:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 11.9, "unit": "s"}, ...}}
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload policy-cold|fanout-store|service-warm|all
//	          -seed N -seconds S -trace 0|1 [-size full|tiny -pins FILE]
//
// -workload all runs every workload, each in its own process, and
// prints every metric by name and unit. See README.md for the
// workloads, the metrics and the layers they attribute cost to.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workers is the simulation pool width of every workload: the
// benchmark host has two cores and the service workload adds one
// closed-loop client on top.
const workers = 2

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sizeSpec scales a run. full is the gated benchmark; tiny is the
// self-test size (visits in the hundreds, a handful of jobs).
type sizeSpec struct {
	SweepVisits   int // visits of policy-cold and fanout-store
	ServiceVisits int // visits of the job spec service-warm serves
	SweepSetups   int // fresh-process set-ups timed per sweep run
	ServiceSetups int // fresh-process set-ups timed per service run
	MinJobs       int // service-warm's job floor per measured region
	HarnessReps   int // harness-only repeats of the job spec (traced run)
}

var sizes = map[string]sizeSpec{
	"full": {SweepVisits: 30000, ServiceVisits: 30000, SweepSetups: 15, ServiceSetups: 2, MinJobs: 100, HarnessReps: 20},
	"tiny": {SweepVisits: 300, ServiceVisits: 200, SweepSetups: 2, ServiceSetups: 2, MinJobs: 12, HarnessReps: 3},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	sizeName string
	size     sizeSpec
	pinsFile string
	pins     pinSet
	dir      string // scratch root for stores and service state
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{"policy-cold", "fanout-store", "service-warm"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed (draws service-warm's request sequence)")
	secs := fs.Float64("seconds", 20, "length of the measured region in seconds (at least one unit always runs)")
	traceFlag := fs.Int("trace", 0, "1: traced run printing per-layer metrics instead of end-to-end ones")
	fs.StringVar(&cfg.sizeName, "size", "full", "run size: full (gated) or tiny (self-test; needs -pins)")
	fs.StringVar(&cfg.pinsFile, "pins", "", "JSON file of pinned digests and counts (default: the built-in full-size pins)")
	fs.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for stores and service state")
	setupOnly := fs.Bool("setup-probe", false, "internal: perform the workload's set-up, report readiness, exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "-trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	cfg.seconds = time.Duration(*secs * float64(time.Second))
	cfg.trace = *traceFlag == 1
	size, ok := sizes[cfg.sizeName]
	if !ok {
		fmt.Fprintf(stderr, "unknown -size %q (full, tiny)\n", cfg.sizeName)
		return 2
	}
	cfg.size = size
	if err := loadPins(&cfg); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if cfg.workload == "all" {
		return runAll(cfg, args, stdout, stderr)
	}
	if !knownWorkload(cfg.workload) {
		fmt.Fprintf(stderr, "unknown -workload %q (have: %s, all)\n", cfg.workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// Every process gets its own scratch subdirectory, removed on exit.
	dir, err := os.MkdirTemp(cfg.dir, cfg.workload+"-")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir

	if *setupOnly {
		if err := setupProbeChild(cfg, stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "perfbench %s seed=%d size=%s seconds=%g trace=%d workers=%d\n",
		cfg.workload, cfg.seed, cfg.sizeName, cfg.seconds.Seconds(), *traceFlag, workers)
	res, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printMetrics(stdout, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed their checks\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// runWorkload dispatches one workload in this process.
func runWorkload(cfg config, log io.Writer) (result, error) {
	switch cfg.workload {
	case "service-warm":
		if cfg.trace {
			return serviceTraced(cfg, log)
		}
		return serviceGated(cfg, log)
	default:
		w := sweeps[cfg.workload]
		if cfg.trace {
			return sweepTraced(w, cfg, log)
		}
		return sweepGated(w, cfg, log)
	}
}

// checks accumulates the output and count checks of a run. Every
// mismatch is one failed operation.
type checks struct {
	log      io.Writer
	failures int
}

func (c *checks) equal(what string, got, want any) {
	if got != want {
		c.failures++
		fmt.Fprintf(c.log, "CHECK FAILED: %s = %v, want %v\n", what, got, want)
	}
}

func (c *checks) fail(format string, args ...any) {
	c.failures++
	fmt.Fprintf(c.log, "CHECK FAILED: "+format+"\n", args...)
}

// printMetrics prints every metric by name, value and unit, one per
// line, in name order.
func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// ---- set-up timing ----

// timeSetups measures the workload's set-up n times, each in a fresh
// process: from just before the process starts to its "ready" line,
// i.e. process start to the point where the measured region would
// begin. The median is setup_s.
func timeSetups(cfg config, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-setup-probe", "-workload", cfg.workload, "-size", cfg.sizeName, "-dir", cfg.dir}
	if cfg.pinsFile != "" {
		args = append(args, "-pins", cfg.pinsFile)
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := timeOneSetup(exe, args)
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		out = append(out, d)
	}
	return out, nil
}

func timeOneSetup(exe string, args []string) (float64, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(pipe).ReadString('\n')
	d := time.Since(start).Seconds()
	io.Copy(io.Discard, pipe)
	werr := cmd.Wait()
	if rerr != nil || strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("child did not report ready (%q, %v, %v)", line, rerr, werr)
	}
	if werr != nil {
		return 0, werr
	}
	return d, nil
}

// setupProbeChild is the child side of timeSetups.
func setupProbeChild(cfg config, stdout io.Writer) error {
	var teardown func()
	switch cfg.workload {
	case "service-warm":
		rig, err := newServiceRig(cfg)
		if err != nil {
			return err
		}
		teardown = rig.close
	default:
		rig, err := newSweepRig(sweeps[cfg.workload], cfg)
		if err != nil {
			return err
		}
		teardown = rig.close
	}
	fmt.Fprintln(stdout, "ready")
	teardown()
	return nil
}

// ---- -workload all ----

// runAll runs every workload in its own process — the service
// installs its store process-wide, and the generation-pass counter and
// the cache model's level-array pools are process-wide too — and
// prints each workload's metrics under its name. The last line merges
// the per-workload results, keyed workload/metric.
func runAll(cfg config, args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloadNames {
		child := append(withoutWorkload(args), "-workload", w)
		cmd := exec.Command(exe, child...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(stdout, l)
		}
		var r result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr != nil {
			fmt.Fprintf(stderr, "%s: no result (%v)\n", w, err)
			return 1
		}
		total.Correct = total.Correct && r.Correct && err == nil
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for n, m := range r.Metrics {
			total.Metrics[w+"/"+n] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// withoutWorkload drops any -workload flag from args.
func withoutWorkload(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		name := strings.TrimLeft(a, "-")
		if name == "workload" {
			i++ // the value follows
			continue
		}
		if strings.HasPrefix(name, "workload=") {
			continue
		}
		out = append(out, a)
	}
	return out
}

// ---- pins ----

// loadPins installs the pinned digests and counts: the built-in
// full-size pins, or a -pins file (the self-test derives tiny-size pins
// from califorms-bench itself).
func loadPins(cfg *config) error {
	if cfg.pinsFile == "" {
		if cfg.sizeName != "full" {
			return errors.New("-size " + cfg.sizeName + " has no built-in pins; pass -pins FILE")
		}
		cfg.pins = fullPins
		return nil
	}
	data, err := os.ReadFile(cfg.pinsFile)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &cfg.pins); err != nil {
		return fmt.Errorf("%s: %w", cfg.pinsFile, err)
	}
	return nil
}
