package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/store"
)

// Config sizes the service.
type Config struct {
	// DataDir is the service root: DataDir/store holds the shared
	// content-addressed store, DataDir/jobs the job records and
	// rendered artifacts, DataDir/journals the per-job sweep journals.
	DataDir string
	// Workers is the per-job simulation pool width (0: GOMAXPROCS).
	// Output is byte-identical at any width.
	Workers int
	// QueueDepth bounds the FIFO of queued jobs (0: 64). A full queue
	// rejects POST /v1/jobs with 503.
	QueueDepth int
	// Jobs is the number of jobs executed concurrently (0: 1). The
	// shared store plus stream singleflight keeps concurrent jobs from
	// duplicating generation passes. Each job runs on its own pool,
	// which counts its own generation passes, so per-job gen_passes is
	// exact at any value.
	Jobs int
	// Log receives service diagnostics (nil: os.Stderr).
	Log io.Writer
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 64
	}
	return c.QueueDepth
}

func (c Config) jobs() int {
	if c.Jobs <= 0 {
		return 1
	}
	return c.Jobs
}

// Server is the sweep service: an HTTP/JSON API over a bounded FIFO
// job queue and a fixed set of job executors, all sharing one
// content-addressed store behind a stream singleflight.
type Server struct {
	cfg    Config
	dir    string
	st     *store.Store // the on-disk store (counter source)
	shared *dedupStore  // every job's backing store
	log    io.Writer

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // job IDs in submission order
	queue    chan *Job
	draining bool

	seq atomic.Uint64
	wg  sync.WaitGroup
}

// New opens (or creates) the service state under cfg.DataDir, requeues
// every persisted queued or interrupted job in submission order, and
// starts the executors.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("server: Config.DataDir is required")
	}
	logw := cfg.Log
	if logw == nil {
		logw = os.Stderr
	}
	for _, sub := range []string{"jobs", "journals"} {
		if err := os.MkdirAll(filepath.Join(cfg.DataDir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	st, err := store.Open(filepath.Join(cfg.DataDir, "store"), store.Options{})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		dir:    cfg.DataDir,
		st:     st,
		shared: newDedupStore(st),
		log:    logw,
		jobs:   make(map[string]*Job),
	}

	persisted, err := s.loadJobs()
	if err != nil {
		return nil, err
	}
	s.seedJobSeq(persisted)
	// The queue must at least hold every persisted job coming back
	// queued, however the depth is configured — rejecting a restart
	// would strand durable work.
	depth := cfg.queueDepth()
	if len(persisted) > depth {
		depth = len(persisted)
	}
	s.queue = make(chan *Job, depth)
	for _, j := range persisted {
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if j.State() == StateQueued {
			s.queue <- j
			s.persist(j) // running → queued transitions become durable
		}
	}
	for i := 0; i < cfg.jobs(); i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	fmt.Fprintf(s.log, "[server] "+format+"\n", args...)
}

// Store returns the service's on-disk store handle (counter source).
func (s *Server) Store() *store.Store { return s.st }

// ---- queue and executors ----

func (s *Server) executor() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			// The job stays persisted as queued; restart requeues it.
			continue
		}
		if j.State() != StateQueued {
			continue // canceled while queued
		}
		s.runJob(j)
	}
}

// runJob executes one job start to finish: resolve the spec, layer a
// sweep journal over the shared store, run the experiments on a fresh
// pool, and render the artifact. A drained run (server shutdown) goes
// back to queued — the journal holds the completed prefix, so the
// restart only simulates the remainder and the final artifact is
// byte-identical to an uninterrupted run. A canceled run ends in
// canceled.
func (s *Server) runJob(j *Job) {
	rs, err := j.spec.Resolve()
	if err != nil {
		// Specs are validated at submission; reaching this means the
		// registry changed under a persisted job.
		s.finishJob(j, StateFailed, err.Error())
		return
	}
	pool := harness.NewPool(s.cfg.Workers)
	pool.SetProgress(j.setProgress)

	// The running state is not persisted: a restart requeues a running
	// job exactly like a queued one (loadJobs).
	j.mu.Lock()
	j.state = StateRunning
	j.pool = pool
	j.mu.Unlock()

	jp := s.journalPath(j.id)
	man := rs.Manifest()
	js := &jobStore{dedupStore: s.shared, open: func() *harness.SweepJournal {
		sj, err := harness.NewSweep(jp, man, s.shared)
		if err != nil {
			// Like a failed persist: the job runs on, unjournaled.
			s.logf("job %s: %v; running without a journal", j.id, err)
			return nil
		}
		sj.OnCell(j.setJournaled)
		return sj
	}}
	if _, statErr := os.Stat(jp); statErr == nil {
		if sj, err := harness.ResumeSweep(jp, man, s.shared); err != nil {
			s.logf("job %s: %v; starting the sweep fresh", j.id, err)
			os.Remove(jp)
		} else {
			s.logf("job %s: resuming with %d journaled cells", j.id, sj.Cells())
			sj.OnCell(j.setJournaled)
			j.setJournaled(sj.Cells())
			js.once.Do(func() { js.sj.Store(sj) })
		}
	}
	pool.SetStore(js)

	var results []harness.Result
	for _, name := range rs.Names {
		if pool.Draining() {
			break
		}
		e, _ := harness.Get(name)
		start := time.Now()
		results = append(results, harness.Run(e, rs.Params, pool)...)
		s.logf("job %s: %s completed in %v", j.id, e.Name, time.Since(start).Round(time.Millisecond))
	}

	j.mu.Lock()
	j.pool = nil
	j.genPasses += pool.GenPasses()
	j.failedCells = pool.FailedCells()
	cancelled := j.cancelled
	j.mu.Unlock()

	if sj := js.sj.Load(); sj != nil {
		sj.Close()
	}

	if pool.Draining() {
		if cancelled {
			os.Remove(jp) // a canceled job never resumes; its cells live on in the shared store
			s.finishJob(j, StateCanceled, "")
		} else {
			// Server drain: the journal holds every completed cell;
			// restart requeues and resumes.
			s.finishJob(j, StateQueued, "")
		}
		return
	}

	em, err := harness.NewEmitter(rs.Format)
	var buf bytes.Buffer
	if err == nil {
		err = em.Emit(&buf, results)
	}
	if err == nil {
		err = store.AtomicWriteFile(s.artifactPath(j.id), buf.Bytes(), 0o644)
	}
	if err != nil {
		s.finishJob(j, StateFailed, err.Error())
		return
	}
	s.finishJob(j, StateDone, "")
}

func (s *Server) finishJob(j *Job, state JobState, errText string) {
	j.mu.Lock()
	j.state = state
	j.err = errText
	j.mu.Unlock()
	s.persist(j)
}

// Submit validates the spec, persists a new queued job, and enqueues
// it. It is the programmatic form of POST /v1/jobs.
func (s *Server) Submit(spec harness.SweepSpec) (*Job, error) {
	if _, err := spec.Resolve(); err != nil {
		return nil, &apiError{status: http.StatusBadRequest, msg: err.Error()}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, &apiError{status: http.StatusServiceUnavailable, msg: "server is draining"}
	}
	if len(s.queue) == cap(s.queue) {
		return nil, &apiError{status: http.StatusServiceUnavailable, msg: fmt.Sprintf("job queue full (%d queued)", cap(s.queue))}
	}
	j := &Job{id: s.nextJobID(), spec: spec, state: StateQueued, created: time.Now().UTC()}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.persist(j)
	s.queue <- j // cannot block: sends only happen under mu after the len check
	return j, nil
}

// Cancel cancels a queued or running job. It is the programmatic form
// of DELETE /v1/jobs/{id}.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return &apiError{status: http.StatusNotFound, msg: "no such job"}
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.cancelled = true
		j.mu.Unlock()
		s.persist(j)
		return nil
	case StateRunning:
		j.cancelled = true
		pool := j.pool
		j.mu.Unlock()
		if pool != nil {
			pool.Drain() // in-flight cells finish, queued cells drop; runJob observes and finalizes
		}
		return nil
	default:
		state := j.state
		j.mu.Unlock()
		return &apiError{status: http.StatusConflict, msg: fmt.Sprintf("job is %s; only queued or running jobs can be canceled", state)}
	}
}

// Drain stops accepting and starting jobs and gracefully drains every
// running job's pool: in-flight cells finish (journaled, stored),
// queued cells drop, running jobs go back to queued. Idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	var pools []*harness.Pool
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == StateRunning && j.pool != nil {
			pools = append(pools, j.pool)
		}
		j.mu.Unlock()
	}
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()
	for _, p := range pools {
		p.Drain()
	}
}

// Close drains the service and waits for the executors to finish.
func (s *Server) Close() {
	s.Drain()
	s.wg.Wait()
}

// ---- HTTP API ----

type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func httpError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if ae, ok := err.(*apiError); ok {
		status = ae.status
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func respondJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// resultContentTypes maps report formats to response content types.
var resultContentTypes = map[string]string{
	"text":     "text/plain; charset=utf-8",
	"json":     "application/json",
	"csv":      "text/csv; charset=utf-8",
	"markdown": "text/markdown; charset=utf-8",
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	mux.HandleFunc("GET /v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		WriteExperimentList(w)
	})
	mux.HandleFunc("GET /v1/machines", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		WriteMachineList(w)
	})
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec harness.SweepSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, &apiError{status: http.StatusBadRequest, msg: "bad job spec: " + err.Error()})
		return
	}
	j, err := s.Submit(spec)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	respondJSON(w, http.StatusCreated, j.view())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]jobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].view())
	}
	s.mu.Unlock()
	respondJSON(w, http.StatusOK, views)
}

func (s *Server) job(r *http.Request) (*Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		return nil, &apiError{status: http.StatusNotFound, msg: "no such job"}
	}
	return j, nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.job(r)
	if err != nil {
		httpError(w, err)
		return
	}
	respondJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, err := s.job(r)
	if err != nil {
		httpError(w, err)
		return
	}
	if state := j.State(); state != StateDone {
		httpError(w, &apiError{status: http.StatusConflict, msg: fmt.Sprintf("job is %s; the result exists once it is done", state)})
		return
	}
	data, err := os.ReadFile(s.artifactPath(j.id))
	if err != nil {
		httpError(w, fmt.Errorf("artifact unreadable: %v", err))
		return
	}
	format := j.spec.Format
	if format == "" {
		format = "text"
	}
	ct := resultContentTypes[format]
	if ct == "" {
		ct = "application/octet-stream"
	}
	w.Header().Set("Content-Type", ct)
	w.Write(data)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.Cancel(r.PathValue("id")); err != nil {
		httpError(w, err)
		return
	}
	j, err := s.job(r)
	if err != nil {
		httpError(w, err)
		return
	}
	respondJSON(w, http.StatusOK, j.view())
}

// handleVars serves the service counters: store traffic, job-state
// totals, queue occupancy, and the generation passes and failed cells
// summed over the job records. (A custom handler rather than package
// expvar so several servers can coexist in one test process.)
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	c := s.st.Counters()
	vars := map[string]any{
		"store": map[string]uint64{
			"hits":          c.Hits,
			"misses":        c.Misses,
			"puts":          c.Puts,
			"bytes_read":    c.BytesRead,
			"bytes_written": c.BytesWritten,
		},
	}
	states := map[JobState]int{}
	var genPasses, failedCells uint64
	s.mu.Lock()
	for _, j := range s.jobs {
		j.mu.Lock()
		states[j.state]++
		genPasses += j.genPasses
		failedCells += j.failedCells
		j.mu.Unlock()
	}
	vars["total_gen_passes"] = genPasses
	vars["total_failed_cell"] = failedCells
	vars["queue_depth"] = len(s.queue)
	vars["queue_cap"] = cap(s.queue)
	s.mu.Unlock()
	jobCounts := map[string]int{}
	for st, n := range states {
		jobCounts[string(st)] = n
	}
	vars["jobs"] = jobCounts
	s.shared.mu.Lock()
	vars["inflight_streams"] = len(s.shared.flights)
	s.shared.mu.Unlock()
	respondJSON(w, http.StatusOK, vars)
}
