package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/harness"
	"repro/internal/server"
	"repro/internal/sim"
)

// serviceExps is the one job spec service-warm serves. One homogeneous
// spec keeps job latency unimodal: tier-1 result hits (fig10,
// sens-llc), mix-unit hits and rate4's recordings, which mix stage one
// reads on every job.
var serviceExps = []string{"fig10", "sens-llc", "rate4"}

// pollInterval is the client's fixed status-polling interval: short
// against a job, long enough that polling takes little CPU from the
// two workers.
const pollInterval = 5 * time.Millisecond

// serviceRig is an in-process califorms-server on loopback whose store
// set-up has filled by running the job spec once.
type serviceRig struct {
	cfg     config
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	dataDir string
	// refs holds the set-up jobs' result bytes per format; every
	// measured job must reproduce them exactly.
	refs map[string][]byte
	// The cold set-up job's exact counts.
	setupGen, setupInstr, setupCells uint64
}

func newServiceRig(cfg config) (*serviceRig, error) {
	dataDir, err := os.MkdirTemp(cfg.dir, "service-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{DataDir: dataDir, Workers: workers, Jobs: 1, Log: io.Discard})
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dataDir)
		return nil, err
	}
	r := &serviceRig{
		cfg:     cfg,
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler()},
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		client:  &http.Client{},
		dataDir: dataDir,
		refs:    make(map[string][]byte),
	}
	go func() { r.served <- r.hs.Serve(ln) }()

	// Fill the store: the spec runs cold once (under the probe, for its
	// exact instruction count), then warm once per remaining format to
	// record the reference bytes.
	sim.StartProbe()
	j, err := r.job("text")
	tot := sim.StopProbe()
	if err == nil && j.view.State != "done" {
		err = fmt.Errorf("set-up job ended %s: %s", j.view.State, j.view.Error)
	}
	if err != nil {
		r.close()
		return nil, fmt.Errorf("service set-up: %w", err)
	}
	r.refs["text"] = j.body
	r.setupGen, r.setupInstr, r.setupCells = j.view.GenPasses, tot.Ops, j.view.Progress.Total
	for _, f := range harness.Formats() {
		if f == "text" {
			continue
		}
		j, err := r.job(f)
		if err == nil && j.view.State != "done" {
			err = fmt.Errorf("set-up job ended %s: %s", j.view.State, j.view.Error)
		}
		if err != nil {
			r.close()
			return nil, fmt.Errorf("service set-up: %w", err)
		}
		r.refs[f] = j.body
	}
	return r, nil
}

// close stops the server and the listener and removes the service
// state.
func (r *serviceRig) close() {
	r.srv.Close()
	r.hs.Close()
	<-r.served
	r.client.CloseIdleConnections()
	os.RemoveAll(r.dataDir)
}

// checkSetup compares the set-up jobs with the pins.
func (r *serviceRig) checkSetup(c *checks, pin servicePin) {
	for _, f := range harness.Formats() {
		c.equal("service "+f+" result sha256", digest(r.refs[f]), pin.Digests[f])
	}
	c.equal("set-up job sim.gen_passes", r.setupGen, pin.GenPasses)
	c.equal("set-up job sim.instr", r.setupInstr, pin.Instr)
	c.equal("set-up job harness.cells", r.setupCells, pin.Cells)
}

// jobView is the part of the server's job record the client reads.
type jobView struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Error    string `json:"error"`
	Progress struct {
		Total uint64 `json:"total"`
	} `json:"progress"`
	GenPasses   uint64 `json:"gen_passes"`
	FailedCells uint64 `json:"failed_cells"`
}

// jobOut is one job as the client saw it.
type jobOut struct {
	format  string
	view    jobView
	body    []byte
	latency float64 // POST until the result bytes arrived
	cpu     float64 // process CPU over the same interval
	// Client time per request kind, and the number of status polls.
	submit, poll, result float64
	polls                int
}

// job submits the spec in the given format, polls its status at
// pollInterval until it ends, and fetches the result of a done job.
func (r *serviceRig) job(format string) (jobOut, error) {
	spec, err := json.Marshal(harness.SweepSpec{Experiments: serviceExps, Visits: r.cfg.size.ServiceVisits, Format: format})
	if err != nil {
		return jobOut{}, err
	}
	out := jobOut{format: format}
	c0 := cpuSeconds()
	t0 := time.Now()
	if err := r.call("POST", "/v1/jobs", spec, http.StatusCreated, &out.view, nil); err != nil {
		return out, err
	}
	out.submit = time.Since(t0).Seconds()
	for out.view.State == "queued" || out.view.State == "running" {
		time.Sleep(pollInterval)
		tp := time.Now()
		if err := r.call("GET", "/v1/jobs/"+out.view.ID, nil, http.StatusOK, &out.view, nil); err != nil {
			return out, err
		}
		out.poll += time.Since(tp).Seconds()
		out.polls++
	}
	if out.view.State == "done" {
		tr := time.Now()
		if err := r.call("GET", "/v1/jobs/"+out.view.ID+"/result", nil, http.StatusOK, nil, &out.body); err != nil {
			return out, err
		}
		out.result = time.Since(tr).Seconds()
	}
	out.latency = time.Since(t0).Seconds()
	out.cpu = cpuSeconds() - c0
	return out, nil
}

// call makes one request and decodes a JSON reply into view or copies
// the raw body into raw. A status other than want is an error.
func (r *serviceRig) call(method, path string, body []byte, want int, view *jobView, raw *[]byte) error {
	req, err := http.NewRequest(method, r.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if raw != nil {
		*raw = data
		return nil
	}
	if err := json.Unmarshal(data, view); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// loopOut is one closed-loop measured region.
type loopOut struct {
	wall    float64 // the whole region
	jobs    int     // jobs attempted, the warm-up block included
	failed  int     // jobs that failed (HTTP error, not done, wrong bytes or counts)
	ok      []jobOut
	peakRSS float64
	// Per complete block: the mean latency and the mean process CPU of
	// its jobs.
	blockLatency, blockCPU []float64
	latency                []float64            // every measured job that succeeded
	byFormat               map[string][]float64 // the same latencies per format
}

// closedLoop runs one client in blocks. A block submits the spec once
// in every format, in an order drawn from rng, and waits for each
// result before the next submit. Every block is therefore the same
// work, and the format mix of a run does not depend on the seed. One
// untimed warm-up block runs first; measured blocks then repeat until
// -seconds have passed and at least MinJobs jobs ran.
func (r *serviceRig) closedLoop(rng *rand.Rand, c *checks, pin servicePin) (loopOut, error) {
	out := loopOut{byFormat: make(map[string][]float64)}
	settle()
	r.block(rng, c, pin, &out)
	if err := resetPeakRSS(); err != nil {
		return out, err
	}
	measured := out.jobs
	start := time.Now()
	deadline := start.Add(r.cfg.seconds)
	for out.jobs-measured < r.cfg.size.MinJobs || time.Now().Before(deadline) {
		jobs := r.block(rng, c, pin, &out)
		if len(jobs) < len(harness.Formats()) {
			continue // a failed job leaves the block incomplete
		}
		var lat, cpu float64
		for _, j := range jobs {
			lat += j.latency
			cpu += j.cpu
			out.latency = append(out.latency, j.latency)
			out.byFormat[j.format] = append(out.byFormat[j.format], j.latency)
		}
		out.ok = append(out.ok, jobs...)
		out.blockLatency = append(out.blockLatency, lat/float64(len(jobs)))
		out.blockCPU = append(out.blockCPU, cpu/float64(len(jobs)))
	}
	out.wall = time.Since(start).Seconds()
	rss, err := peakRSSMB()
	out.peakRSS = rss
	return out, err
}

// block runs one block of jobs and checks each; it returns the jobs
// that passed every check.
func (r *serviceRig) block(rng *rand.Rand, c *checks, pin servicePin, out *loopOut) []jobOut {
	formats := harness.Formats()
	var ok []jobOut
	for _, i := range rng.Perm(len(formats)) {
		f := formats[i]
		out.jobs++
		j, err := r.job(f)
		bad := ""
		switch {
		case err != nil:
			bad = err.Error()
		case j.view.State != "done":
			bad = fmt.Sprintf("job %s ended %s: %s", j.view.ID, j.view.State, j.view.Error)
		case j.view.GenPasses != 0:
			bad = fmt.Sprintf("job %s: gen_passes = %d, want 0", j.view.ID, j.view.GenPasses)
		case j.view.FailedCells != 0:
			bad = fmt.Sprintf("job %s: %d failed cells", j.view.ID, j.view.FailedCells)
		case j.view.Progress.Total != pin.Cells:
			bad = fmt.Sprintf("job %s: %d cells, want %d", j.view.ID, j.view.Progress.Total, pin.Cells)
		case !bytes.Equal(j.body, r.refs[f]):
			bad = fmt.Sprintf("job %s (%s): result bytes differ from the set-up job's (%s)", j.view.ID, f, firstDiff(j.body, r.refs[f]))
		}
		if bad != "" {
			out.failed++
			c.fail("%s", bad)
			continue
		}
		ok = append(ok, j)
	}
	return ok
}

// serviceGated is service-warm's gated run. Its unit is one block of
// jobs, one per format: wall_s and cpu_s are the medians over the
// region's blocks of the mean job latency and the mean job CPU time.
func serviceGated(cfg config, log io.Writer) (result, error) {
	setups, err := timeSetups(cfg, cfg.size.ServiceSetups)
	if err != nil {
		return result{}, err
	}
	rig, err := newServiceRig(cfg)
	if err != nil {
		return result{}, err
	}
	defer rig.close()
	pin := cfg.pins.ServiceWarm
	c := &checks{log: log}
	rig.checkSetup(c, pin)
	host := startHostProbe()
	lo, err := rig.closedLoop(rand.New(rand.NewSource(cfg.seed)), c, pin)
	if err != nil {
		return result{}, err
	}
	host.sample()
	if len(lo.blockLatency) == 0 {
		return result{}, fmt.Errorf("no block of jobs succeeded (%d jobs attempted)", lo.jobs)
	}
	n := len(lo.latency)
	wall := median(lo.blockLatency)
	fmt.Fprintf(log, "%d jobs (%d failed) in %d complete blocks after a warm-up block; set-ups %v s\n",
		lo.jobs, lo.failed, len(lo.blockLatency), setups)
	fmt.Fprintf(log, "job latency over %d jobs, %d of them beyond p90:\n", n, n-int(math.Ceil(0.9*float64(n))))
	ms := map[string]metric{
		"job_p50_s":  {percentile(lo.latency, 0.5), "s"},
		"job_p90_s":  {percentile(lo.latency, 0.9), "s"},
		"jobs_per_s": {float64(n) / lo.wall, "1/s"},
	}
	for f, l := range lo.byFormat {
		ms["job_p50_s."+f] = metric{percentile(l, 0.5), "s"}
	}
	printMetrics(log, ms)
	printMetrics(log, host.metrics())
	return result{
		Correct:   c.failures == 0,
		Attempted: lo.jobs,
		Failed:    c.failures,
		Metrics: map[string]metric{
			"wall_s":          {wall, "s"},
			"cpu_s":           {median(lo.blockCPU), "s"},
			"peak_rss_mb":     {lo.peakRSS, "MB"},
			"setup_s":         {median(setups), "s"},
			"sim_instr_per_s": {float64(pin.Instr) / wall, "1/s"},
		},
	}, nil
}
