package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// JobState is one node of the job state machine:
//
//	queued ──▶ running ──▶ done
//	  ▲            │  └──▶ failed
//	  └────────────┤  (server drain: back to queued, resumable)
//	               └──▶ canceled   (DELETE /v1/jobs/{id})
//
// queued and running jobs survive a server kill: both are persisted,
// and restart requeues them (running means the journal already holds
// the completed prefix, so the re-run only simulates the remainder).
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Job is one submitted sweep. The mutable fields are guarded by mu;
// jobView snapshots them for API responses and persistence.
type Job struct {
	id   string
	spec harness.SweepSpec

	mu        sync.Mutex
	state     JobState
	err       string
	created   time.Time
	pool      *harness.Pool // set while running; Drain() is the cancel hook
	cancelled bool          // DELETE arrived; distinguishes cancel from server drain

	cellsDone, cellsTotal uint64 // pool progress snapshot
	journaled             uint64 // cells journaled (SweepJournal.OnCell)
	genPasses             uint64 // generation passes this job's run cost
	failedCells           uint64 // cells that failed (FAILED-cells table)
}

// jobView is the wire and persistence form of a Job.
type jobView struct {
	ID      string            `json:"id"`
	Spec    harness.SweepSpec `json:"spec"`
	State   JobState          `json:"state"`
	Error   string            `json:"error,omitempty"`
	Created time.Time         `json:"created"`
	// Progress counts sweep cells: Done/Total from the worker pool
	// (Total grows as experiments schedule their matrices), Journaled
	// from the job's sweep journal — the count a restart resumes from.
	Progress struct {
		Done      uint64 `json:"done"`
		Total     uint64 `json:"total"`
		Journaled uint64 `json:"journaled"`
	} `json:"progress"`
	// GenPasses is the number of op-stream generation passes this
	// job's execution cost. 0 on a warm resubmit — every stream came
	// from the store or from a concurrent job's capture.
	GenPasses   uint64 `json:"gen_passes"`
	FailedCells uint64 `json:"failed_cells"`
}

func (j *Job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:          j.id,
		Spec:        j.spec,
		State:       j.state,
		Error:       j.err,
		Created:     j.created,
		GenPasses:   j.genPasses,
		FailedCells: j.failedCells,
	}
	v.Progress.Done = j.cellsDone
	v.Progress.Total = j.cellsTotal
	v.Progress.Journaled = j.journaled
	return v
}

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// setProgress is the pool's progress observer (called from worker
// goroutines).
func (j *Job) setProgress(done, total uint64) {
	j.mu.Lock()
	j.cellsDone, j.cellsTotal = done, total
	j.mu.Unlock()
}

// setJournaled is the journal's OnCell observer.
func (j *Job) setJournaled(n uint64) {
	j.mu.Lock()
	j.journaled = n
	j.mu.Unlock()
}

// ---- persistence ----
//
// Each job persists as <data>/jobs/<id>.json (atomic rename), its
// rendered artifact as <id>.out, and its journal as
// <data>/journals/<id>.journal. The .json is written on submission and
// rewritten when the job ends (done, failed, canceled, or queued again
// by a drain), so a restart reconstructs the queue exactly: a job that
// was running still reads queued and is requeued.

func (s *Server) jobPath(id string) string      { return filepath.Join(s.dir, "jobs", id+".json") }
func (s *Server) artifactPath(id string) string { return filepath.Join(s.dir, "jobs", id+".out") }
func (s *Server) journalPath(id string) string {
	return filepath.Join(s.dir, "journals", id+".journal")
}

// persist writes the job's current view. A write failure is logged,
// not fatal: the job still runs, it just won't survive a restart in
// its newest state.
func (s *Server) persist(j *Job) {
	v := j.view()
	data, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = store.AtomicWriteFile(s.jobPath(j.id), data, 0o644)
	}
	if err != nil {
		s.logf("job %s: persist: %v", j.id, err)
	}
}

// loadJobs reconstructs persisted jobs at startup, returning them in
// ID order (the submission order — IDs are a zero-padded sequence).
// Records that read running (older builds persisted the state) come
// back queued; a requeued job's journal, if it has one, holds the
// completed prefix.
func (s *Server) loadJobs() ([]*Job, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, err
	}
	var jobs []*Job
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, "jobs", name))
		if err != nil {
			s.logf("startup: %s: %v", name, err)
			continue
		}
		var v jobView
		if err := json.Unmarshal(data, &v); err != nil || v.ID == "" {
			s.logf("startup: %s: unreadable job record (%v)", name, err)
			continue
		}
		j := &Job{id: v.ID, spec: v.Spec, state: v.State, err: v.Error, created: v.Created,
			genPasses: v.GenPasses, failedCells: v.FailedCells,
			cellsDone: v.Progress.Done, cellsTotal: v.Progress.Total, journaled: v.Progress.Journaled}
		if j.state == StateRunning {
			j.state = StateQueued
		}
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].id < jobs[b].id })
	return jobs, nil
}

// nextJobID allocates the next zero-padded sequential ID after the
// highest persisted one.
func (s *Server) nextJobID() string {
	return fmt.Sprintf("job-%08d", s.seq.Add(1))
}

// seedJobSeq points the ID sequence past every persisted job.
func (s *Server) seedJobSeq(jobs []*Job) {
	var max uint64
	for _, j := range jobs {
		if n, err := strconv.ParseUint(strings.TrimPrefix(j.id, "job-"), 10, 64); err == nil && n > max {
			max = n
		}
	}
	s.seq.Store(max)
}

// jobStore is a running job's store: the shared store until the job's
// first put, which creates the job's sweep journal, and the journal
// from then on. Before that put the job has completed nothing the
// shared store does not already serve, so a journal would hold nothing
// to resume, and a restart that finds none starts the sweep fresh with
// the same result. A warm job puts nothing and so writes no journal.
type jobStore struct {
	// The shared store serves reads before the first put, and
	// AbortStream always.
	*dedupStore
	open func() *harness.SweepJournal // nil if it cannot be created
	once sync.Once
	sj   atomic.Pointer[harness.SweepJournal]
}

func (js *jobStore) cur() harness.Store {
	if sj := js.sj.Load(); sj != nil {
		return sj
	}
	return js.dedupStore
}

// put opens the journal on the job's first put.
func (js *jobStore) put() harness.Store {
	js.once.Do(func() {
		if sj := js.open(); sj != nil {
			js.sj.Store(sj)
		}
	})
	return js.cur()
}

func (js *jobStore) GetRun(key string) (sim.Result, bool) { return js.cur().GetRun(key) }
func (js *jobStore) PutRun(key string, r sim.Result)      { js.put().PutRun(key, r) }
func (js *jobStore) GetRecording(key string) (*trace.Recording, bool) {
	return js.cur().GetRecording(key)
}
func (js *jobStore) PutRecording(key string, rec *trace.Recording) { js.put().PutRecording(key, rec) }
func (js *jobStore) GetMix(key string, v any) bool                 { return js.cur().GetMix(key, v) }
func (js *jobStore) PutMix(key string, v any)                      { js.put().PutMix(key, v) }

var _ harness.StreamAborter = (*jobStore)(nil)
