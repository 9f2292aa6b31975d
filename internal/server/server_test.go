package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/sim"
)

// renderReference produces the artifact the CLI would print for spec:
// the same resolve → run → emit pipeline, on a storeless pool.
func renderReference(t *testing.T, spec harness.SweepSpec) []byte {
	t.Helper()
	rs, err := spec.Resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	pool := harness.NewPool(0)
	var results []harness.Result
	for _, name := range rs.Names {
		e, ok := harness.Get(name)
		if !ok {
			t.Fatalf("unknown experiment %q", name)
		}
		results = append(results, harness.Run(e, rs.Params, pool)...)
	}
	em, err := harness.NewEmitter(rs.Format)
	if err != nil {
		t.Fatalf("emitter: %v", err)
	}
	var buf bytes.Buffer
	if err := em.Emit(&buf, results); err != nil {
		t.Fatalf("emit: %v", err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// post submits raw JSON and returns the status code and body.
func post(t *testing.T, ts *httptest.Server, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// submit posts a spec and returns the created job's view, asserting
// 201 and a Location header.
func submit(t *testing.T, ts *httptest.Server, spec harness.SweepSpec) jobView {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/jobs: status %d, body %s", resp.StatusCode, data)
	}
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("submit response: %v (%s)", err, data)
	}
	if want := "/v1/jobs/" + v.ID; resp.Header.Get("Location") != want {
		t.Fatalf("Location = %q, want %q", resp.Header.Get("Location"), want)
	}
	return v
}

func getJob(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: status %d, body %s", id, resp.StatusCode, data)
	}
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("job view: %v (%s)", err, data)
	}
	return v
}

// waitJob polls the job until pred holds. Unless the predicate is
// about failure, a failed job fails the test immediately.
func waitJob(t *testing.T, ts *httptest.Server, id string, what string, pred func(jobView) bool) jobView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Minute)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		if pred(v) {
			return v
		}
		if v.State == StateFailed {
			t.Fatalf("job %s failed while waiting for %s: %s", id, what, v.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s: timed out waiting for %s", id, what)
	return jobView{}
}

func fetchResult(t *testing.T, ts *httptest.Server, id string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Content-Type"), data
}

func cancelJob(t *testing.T, ts *httptest.Server, id string) (int, []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE job: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// TestJobLifecycleAllFormats is the end-to-end lifecycle: submit →
// poll → fetch, with the artifact byte-identical to the CLI's stdout
// for the same spec in every report format, plus warm-resubmit
// gen_passes accounting on the shared store.
func TestJobLifecycleAllFormats(t *testing.T) {
	base := harness.SweepSpec{Experiments: []string{"fig3", "fig10"}, Visits: 200, Seeds: 1}

	// References first: the CLI-equivalent bytes.
	refs := make(map[string][]byte)
	for _, format := range harness.Formats() {
		spec := base
		spec.Format = format
		refs[format] = renderReference(t, spec)
	}

	srv, ts := newTestServer(t, Config{})
	var firstJSON []byte
	var coldGen uint64
	for i, format := range harness.Formats() {
		spec := base
		spec.Format = format
		v := submit(t, ts, spec)
		done := waitJob(t, ts, v.ID, "done", func(v jobView) bool { return v.State == StateDone })
		if done.Progress.Done == 0 || done.Progress.Done != done.Progress.Total {
			t.Errorf("format %s: progress %d/%d, want full", format, done.Progress.Done, done.Progress.Total)
		}
		if i == 0 && done.GenPasses == 0 {
			t.Errorf("cold job reported gen_passes = 0, want > 0")
		}
		if i == 0 {
			coldGen = done.GenPasses
		}
		if i > 0 && done.GenPasses != 0 {
			// Same experiments and visits: every stream and run is
			// already stored regardless of the report format.
			t.Errorf("warm job (format %s) reported gen_passes = %d, want 0", format, done.GenPasses)
		}
		status, ct, got := fetchResult(t, ts, v.ID)
		if status != http.StatusOK {
			t.Fatalf("format %s: result status %d", format, status)
		}
		if want := resultContentTypes[format]; ct != want {
			t.Errorf("format %s: Content-Type = %q, want %q", format, ct, want)
		}
		if !bytes.Equal(got, refs[format]) {
			t.Errorf("format %s: artifact differs from CLI reference\n got: %q\nwant: %q", format, truncate(got), truncate(refs[format]))
		}
		if format == "json" {
			firstJSON = got
		}
	}

	// An identical resubmit is a pure lookup: zero generation passes,
	// identical bytes.
	spec := base
	spec.Format = "json"
	v := submit(t, ts, spec)
	done := waitJob(t, ts, v.ID, "done", func(v jobView) bool { return v.State == StateDone })
	if done.GenPasses != 0 {
		t.Errorf("resubmit gen_passes = %d, want 0", done.GenPasses)
	}
	if _, _, got := fetchResult(t, ts, v.ID); !bytes.Equal(got, firstJSON) {
		t.Errorf("resubmit artifact differs from the first run's")
	}
	if c := srv.Store().Counters(); c.Hits == 0 {
		t.Errorf("store hits = 0 after warm resubmits, want > 0")
	}

	// The counters surface on /debug/vars.
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	defer resp.Body.Close()
	var vars struct {
		Store map[string]uint64 `json:"store"`
		Jobs  map[string]int    `json:"jobs"`
		Gen   uint64            `json:"total_gen_passes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	if vars.Store["hits"] == 0 || vars.Store["puts"] == 0 {
		t.Errorf("/debug/vars store counters = %v, want nonzero hits and puts", vars.Store)
	}
	if vars.Jobs[string(StateDone)] != len(harness.Formats())+1 {
		t.Errorf("/debug/vars jobs = %v, want %d done", vars.Jobs, len(harness.Formats())+1)
	}
	if vars.Gen != coldGen {
		t.Errorf("/debug/vars total_gen_passes = %d, want %d (the jobs' sum)", vars.Gen, coldGen)
	}
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// TestConcurrentDuplicateSubmit asserts the stream singleflight: two
// identical jobs submitted together to a 2-executor server cost
// exactly as many generation passes as one cold run — in the process
// total and in the sum of the jobs' own counts.
func TestConcurrentDuplicateSubmit(t *testing.T) {
	spec := harness.SweepSpec{Experiments: []string{"fig10"}, Visits: 100, Seeds: 1, Format: "json"}

	// Reference: one cold run on its own store measures the spec's
	// generation-pass cost.
	_, tsA := newTestServer(t, Config{Jobs: 1})
	vA := submit(t, tsA, spec)
	doneA := waitJob(t, tsA, vA.ID, "done", func(v jobView) bool { return v.State == StateDone })
	if doneA.GenPasses == 0 {
		t.Fatalf("reference cold run cost 0 generation passes")
	}
	_, _, refBytes := fetchResult(t, tsA, vA.ID)

	// Two identical jobs, fresh store, two executors.
	_, tsB := newTestServer(t, Config{Jobs: 2, Workers: 2})
	genBase := sim.GenerationPasses()
	v1 := submit(t, tsB, spec)
	v2 := submit(t, tsB, spec)
	d1 := waitJob(t, tsB, v1.ID, "done", func(v jobView) bool { return v.State == StateDone })
	d2 := waitJob(t, tsB, v2.ID, "done", func(v jobView) bool { return v.State == StateDone })
	delta := sim.GenerationPasses() - genBase

	if delta != doneA.GenPasses {
		t.Errorf("two concurrent identical jobs cost %d generation passes, want %d (one cold run)", delta, doneA.GenPasses)
	}
	if sum := d1.GenPasses + d2.GenPasses; sum != doneA.GenPasses {
		t.Errorf("jobs report %d + %d generation passes, want %d in all (one cold run)", d1.GenPasses, d2.GenPasses, doneA.GenPasses)
	}
	for _, v := range []jobView{d1, d2} {
		_, _, got := fetchResult(t, tsB, v.ID)
		if !bytes.Equal(got, refBytes) {
			t.Errorf("job %s: artifact differs from the single-run reference", v.ID)
		}
	}
}

// TestAblationsJobJournalsItsRuns: the ablation points are served
// through the job's own store, so the job's journal records every
// distinct run they make.
func TestAblationsJobJournalsItsRuns(t *testing.T) {
	keys := make(map[string]bool)
	for _, a := range sim.Ablations(100) {
		for _, pt := range a.Points {
			keys[sim.RunKey(pt.Spec, pt.RC)] = true
		}
	}

	_, ts := newTestServer(t, Config{Jobs: 1, Workers: 2})
	v := submit(t, ts, harness.SweepSpec{Experiments: []string{"ablations"}, Visits: 100, Seeds: 1})
	done := waitJob(t, ts, v.ID, "done", func(v jobView) bool { return v.State == StateDone })
	if done.Progress.Journaled != uint64(len(keys)) {
		t.Errorf("ablations job journaled %d runs, want %d (its distinct runs)", done.Progress.Journaled, len(keys))
	}
}

// TestFailedMixJobCompletes: a mix job whose every cell fails is a job
// with a FAILED table, not a crashed server: the failed units render
// around their zero slots and the job finishes done.
func TestFailedMixJobCompletes(t *testing.T) {
	if err := faultinject.Enable(faultinject.Config{Seed: 1, Rate: 1, Points: []string{"cell.panic"}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)
	_, ts := newTestServer(t, Config{Jobs: 1, Workers: 2})
	v := submit(t, ts, harness.SweepSpec{Experiments: []string{"mix2"}, Visits: 100, Seeds: 1, Format: "json"})
	done := waitJob(t, ts, v.ID, "done", func(v jobView) bool { return v.State == StateDone })
	if done.FailedCells == 0 {
		t.Fatal("all-panic mix job reports no failed cells")
	}
	if _, _, got := fetchResult(t, ts, v.ID); !bytes.Contains(got, []byte(harness.FailedTitle)) {
		t.Fatalf("all-panic mix job's artifact lacks the FAILED table:\n%s", got)
	}
}

// TestJournalOnFirstPut: a job creates its journal when it first puts
// something, so a warm resubmit writes none, and a job that cannot
// create one still completes, unjournaled.
func TestJournalOnFirstPut(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	spec := harness.SweepSpec{Experiments: []string{"fig10"}, Visits: 200, Seeds: 1}
	cold := submit(t, ts, spec)
	waitJob(t, ts, cold.ID, "done", func(v jobView) bool { return v.State == StateDone })
	warm := submit(t, ts, spec)
	waitJob(t, ts, warm.ID, "done", func(v jobView) bool { return v.State == StateDone })
	if _, err := os.Stat(srv.journalPath(cold.ID)); err != nil {
		t.Errorf("cold job's journal: %v", err)
	}
	if _, err := os.Stat(srv.journalPath(warm.ID)); !os.IsNotExist(err) {
		t.Errorf("warm job wrote a journal (stat: %v), want none", err)
	}

	// The journal directory replaced by a file: new cells cannot be
	// journaled, and the job still ends done with the reference bytes.
	dir := filepath.Dir(srv.journalPath(warm.ID))
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	spec.Visits = 201
	v := submit(t, ts, spec)
	done := waitJob(t, ts, v.ID, "done", func(v jobView) bool { return v.State == StateDone })
	if done.Progress.Journaled != 0 || done.GenPasses == 0 {
		t.Errorf("unjournaled cold job: journaled %d, gen_passes %d; want 0 and > 0", done.Progress.Journaled, done.GenPasses)
	}
	if _, _, got := fetchResult(t, ts, v.ID); !bytes.Equal(got, renderReference(t, spec)) {
		t.Errorf("unjournaled job's artifact differs from the reference")
	}
}

// TestCancel covers both cancel paths: a queued job cancels
// immediately; a running job drains (in-flight cells finish) and ends
// canceled with its journal removed.
func TestCancel(t *testing.T) {
	srv, ts := newTestServer(t, Config{Jobs: 1, Workers: 1})

	// A long job to occupy the single executor, and a queued victim.
	long := submit(t, ts, harness.SweepSpec{Experiments: []string{"fig10"}, Visits: 200000, Seeds: 1})
	queued := submit(t, ts, harness.SweepSpec{Experiments: []string{"fig3"}, Visits: 100, Seeds: 1})

	if status, body := cancelJob(t, ts, queued.ID); status != http.StatusOK {
		t.Fatalf("cancel queued: status %d, body %s", status, body)
	}
	if v := getJob(t, ts, queued.ID); v.State != StateCanceled {
		t.Fatalf("queued job state = %s after cancel, want %s", v.State, StateCanceled)
	}

	// Cancel the long job mid-run.
	waitJob(t, ts, long.ID, "running with progress", func(v jobView) bool {
		return v.State == StateRunning && v.Progress.Done >= 1
	})
	if status, body := cancelJob(t, ts, long.ID); status != http.StatusOK {
		t.Fatalf("cancel running: status %d, body %s", status, body)
	}
	v := waitJob(t, ts, long.ID, "canceled", func(v jobView) bool { return v.State == StateCanceled })
	if v.Progress.Done >= v.Progress.Total {
		t.Errorf("canceled job completed all %d cells; cancel landed too late to test the mid-run path", v.Progress.Total)
	}

	// No artifact, no journal, and a second cancel conflicts.
	if status, _, _ := fetchResult(t, ts, long.ID); status != http.StatusConflict {
		t.Errorf("result of canceled job: status %d, want 409", status)
	}
	if _, err := os.Stat(srv.journalPath(long.ID)); !os.IsNotExist(err) {
		t.Errorf("canceled job's journal still exists (err=%v)", err)
	}
	if status, _ := cancelJob(t, ts, long.ID); status != http.StatusConflict {
		t.Errorf("second cancel: status %d, want 409", status)
	}
	if status, _, _ := fetchResult(t, ts, "job-99999999"); status != http.StatusNotFound {
		t.Errorf("result of unknown job: status %d, want 404", status)
	}
}

// TestRestartResume kills the server mid-sweep (the SIGTERM path:
// Drain then Close) and restarts it on the same data directory: the
// job resumes from its journal and the final artifact is
// byte-identical to an uninterrupted run.
func TestRestartResume(t *testing.T) {
	spec := harness.SweepSpec{Experiments: []string{"fig10"}, Visits: 200000, Seeds: 1, Format: "json"}
	ref := renderReference(t, spec)

	dir := t.TempDir()
	srv1, err := New(Config{DataDir: dir, Jobs: 1, Workers: 1, Log: io.Discard})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	v := submit(t, ts1, spec)
	mid := waitJob(t, ts1, v.ID, "first journaled cell", func(v jobView) bool {
		return v.State == StateRunning && v.Progress.Journaled >= 1
	})
	srv1.Drain()
	srv1.Close()
	ts1.Close()

	// The interrupted job persisted as queued with its journal intact.
	data, err := os.ReadFile(srv1.jobPath(v.ID))
	if err != nil {
		t.Fatalf("persisted job record: %v", err)
	}
	var persisted jobView
	if err := json.Unmarshal(data, &persisted); err != nil {
		t.Fatalf("persisted job record: %v", err)
	}
	if persisted.State != StateQueued {
		t.Fatalf("interrupted job persisted as %s, want %s", persisted.State, StateQueued)
	}
	if persisted.Progress.Journaled < mid.Progress.Journaled {
		t.Errorf("persisted journaled = %d, want >= %d", persisted.Progress.Journaled, mid.Progress.Journaled)
	}

	// Restart on the same directory: the job requeues and resumes.
	srv2, err := New(Config{DataDir: dir, Jobs: 1, Workers: 1, Log: io.Discard})
	if err != nil {
		t.Fatalf("restart server.New: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() {
		ts2.Close()
		srv2.Close()
	}()
	done := waitJob(t, ts2, v.ID, "done after restart", func(v jobView) bool { return v.State == StateDone })
	if done.Progress.Journaled < persisted.Progress.Journaled {
		t.Errorf("final journaled = %d, want >= %d (the resumed prefix)", done.Progress.Journaled, persisted.Progress.Journaled)
	}
	status, _, got := fetchResult(t, ts2, v.ID)
	if status != http.StatusOK {
		t.Fatalf("result after restart: status %d", status)
	}
	if !bytes.Equal(got, ref) {
		t.Errorf("resumed artifact differs from the uninterrupted reference\n got: %q\nwant: %q", truncate(got), truncate(ref))
	}
}

// TestSubmitValidation exercises the shared spec validation through
// the HTTP surface: descriptive 400s, never a queued job.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := map[string]struct {
		body string
		want string
	}{
		"unknown experiment": {`{"experiments": ["nope"]}`, `unknown experiment "nope"`},
		"glob matches none":  {`{"experiments": ["zz*"]}`, "matches no experiment"},
		"empty selection":    {`{"experiments": []}`, "selects no experiments"},
		"negative visits":    {`{"experiments": ["fig3"], "visits": -1}`, "visits must be positive"},
		"negative seeds":     {`{"experiments": ["fig3"], "seeds": -2}`, "seeds must be positive"},
		"unknown machine":    {`{"experiments": ["fig3"], "machine": "pdp11"}`, "pdp11"},
		"unknown format":     {`{"experiments": ["fig3"], "format": "yaml"}`, `unknown format "yaml"`},
		"unknown field":      {`{"experiments": ["fig3"], "vists": 5}`, "bad job spec"},
		"malformed json":     {`{"experiments": [`, "bad job spec"},
	}
	for name, tc := range cases {
		status, body := post(t, ts, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", name, status, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("%s: error body is not JSON: %v (%s)", name, err, body)
			continue
		}
		if !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: error %q, want substring %q", name, e.Error, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var views []jobView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatalf("job list: %v", err)
	}
	if len(views) != 0 {
		t.Errorf("%d jobs queued by invalid submissions, want 0", len(views))
	}
}

// TestQueueLimits covers the 503 surfaces: a full queue and a
// draining server.
func TestQueueLimits(t *testing.T) {
	srv, ts := newTestServer(t, Config{Jobs: 1, Workers: 1, QueueDepth: 1})

	long := submit(t, ts, harness.SweepSpec{Experiments: []string{"fig10"}, Visits: 200000, Seeds: 1})
	waitJob(t, ts, long.ID, "running", func(v jobView) bool { return v.State == StateRunning })
	submit(t, ts, harness.SweepSpec{Experiments: []string{"fig3"}, Visits: 100, Seeds: 1}) // fills the queue
	status, body := post(t, ts, `{"experiments": ["fig3"]}`)
	if status != http.StatusServiceUnavailable || !strings.Contains(string(body), "queue full") {
		t.Errorf("over-capacity submit: status %d body %s, want 503 queue full", status, body)
	}

	srv.Drain()
	status, body = post(t, ts, `{"experiments": ["fig3"]}`)
	if status != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Errorf("submit while draining: status %d body %s, want 503 draining", status, body)
	}
}

// TestListings checks the machine-readable registries and liveness
// endpoints.
func TestListings(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatalf("GET /v1/experiments: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var exps []ExperimentInfo
	if err := json.Unmarshal(body, &exps); err != nil {
		t.Fatalf("experiment list: %v", err)
	}
	byName := map[string]ExperimentInfo{}
	for _, e := range exps {
		byName[e.Name] = e
	}
	fig3, ok := byName["fig3"]
	if !ok {
		t.Fatalf("experiment list is missing fig3 (have %d entries)", len(exps))
	}
	if fig3.Kind != "figure" || fig3.Paper != "Figure 3" {
		t.Errorf("fig3 = %+v, want kind figure / Figure 3", fig3)
	}
	if fig3.DefaultVisits != harness.DefaultVisits || fig3.DefaultSeeds != harness.DefaultSeeds {
		t.Errorf("fig3 defaults = %d/%d, want %d/%d", fig3.DefaultVisits, fig3.DefaultSeeds, harness.DefaultVisits, harness.DefaultSeeds)
	}
	if fig3.Coverage == nil {
		t.Errorf("fig3 coverage is null, want an array")
	}
	// The HTTP body and the CLI's -list -format json body are one
	// encoder.
	var buf bytes.Buffer
	if err := WriteExperimentList(&buf); err != nil {
		t.Fatalf("WriteExperimentList: %v", err)
	}
	if !bytes.Equal(body, buf.Bytes()) {
		t.Errorf("GET /v1/experiments differs from WriteExperimentList output")
	}

	resp, err = http.Get(ts.URL + "/v1/machines")
	if err != nil {
		t.Fatalf("GET /v1/machines: %v", err)
	}
	var machines []MachineInfo
	err = json.NewDecoder(resp.Body).Decode(&machines)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("machine list: %v", err)
	}
	var defaults []string
	for _, m := range machines {
		if m.Default {
			defaults = append(defaults, m.Name)
		}
	}
	if len(defaults) != 1 || defaults[0] != machine.Default().Name {
		t.Errorf("default machines = %v, want [%s]", defaults, machine.Default().Name)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(hb) != "ok\n" {
		t.Errorf("/healthz = %q, want ok", hb)
	}
	if status, _ := cancelJob(t, ts, "job-00000042"); status != http.StatusNotFound {
		t.Errorf("cancel unknown job: status %d, want 404", status)
	}
}
