package harness

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Pool is a fixed-width worker pool with a work-stealing shard
// scheduler. Experiments shard their run units over it with Map; the
// capture/replay engine submits shard Tasks that spawn follow-up work
// (a captured trace fanning out to its sibling configurations) with
// Run. Unit results are written to index-addressed slots, so
// scheduling order never leaks into output.
//
// Drain is the graceful-shutdown half of the failure layer: once
// called, queued and newly spawned tasks are discarded while in-flight
// tasks finish, and every later Run returns immediately — the signal
// handler in cmd/califorms-bench drains the pool, flushes store and
// journal, and exits resumable.
//
// Beyond scheduling, a Pool is the per-sweep execution context and the
// only home of a sweep's state: its store (SetStore — the one every
// tier reads, direct runs included), its progress counters
// (SetProgress), its failed cells (FailedCells) and the generation
// passes its sweeps ran (GenPasses). That is what lets several sweeps
// run concurrently in one process — califorms-server executes each job
// on its own Pool with its own journal-backed store, and neither the
// failure tables, the progress counts nor the generation-pass counts
// of concurrent jobs can bleed into each other.
type Pool struct {
	workers int
	drain   atomic.Bool

	mu     sync.Mutex
	active *sched

	// store is the sweep's store; nil runs every cell. Set before the
	// sweep starts, never concurrently with Run.
	store Store

	// genPasses counts the workload generation passes this pool's
	// sweeps ran: stream-handle captures and direct runs the store could
	// not serve.
	genPasses atomic.Uint64

	// Progress accounting: total counts every scheduled sweep cell
	// (matrix cells, mix units, Map units), done every cell that
	// finished — emitted a result or failed. onProgress, when set,
	// observes each completed cell from whichever worker finished it.
	cellsDone  atomic.Uint64
	cellsTotal atomic.Uint64
	onProgress func(done, total uint64)

	// Failure accounting: the cells that failed on this pool, drained
	// into the running experiment's FAILED record by Run.
	failCount atomic.Uint64
	pendingMu sync.Mutex
	pending   []CellError
}

// NewPool returns a pool of the given width; workers <= 0 means
// GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the pool width.
func (p *Pool) Workers() int { return p.workers }

// SetStore installs the store this pool's sweeps schedule against;
// nil (the default) runs every cell. Call it before submitting work,
// never concurrently with Run — it is sweep setup, not a hot-path
// knob.
func (p *Pool) SetStore(s Store) { p.store = s }

// Store returns the store installed by SetStore (nil without one).
func (p *Pool) Store() Store { return p.store }

// GenPasses returns the number of workload generation passes this
// pool's sweeps have run. It counts only this pool's work, so it is
// exact however many pools run at once.
func (p *Pool) GenPasses() uint64 { return p.genPasses.Load() }

// runDirect executes one direct cell — a run outside any Matrix or Mix,
// such as an ablation point — through the pool's store: a stored
// result is served as is; otherwise the cell runs, costing one
// generation pass, and its result is stored.
func (p *Pool) runDirect(spec workload.Spec, rc sim.RunConfig) sim.Result {
	key := ""
	if p.store != nil {
		key = sim.RunKey(spec, rc)
		if r, ok := p.store.GetRun(key); ok {
			return r
		}
	}
	p.genPasses.Add(1)
	r := sim.Run(spec, rc)
	if p.store != nil {
		p.store.PutRun(key, r)
	}
	return r
}

// SetProgress installs an observer of the pool's cell progress. It is
// invoked after every completed cell — from worker goroutines, so it
// must be safe for concurrent use — with the running done count and
// the total scheduled so far. The total grows as experiments schedule
// their matrices: done/total is exact once the last experiment has
// started. Call before submitting work.
func (p *Pool) SetProgress(f func(done, total uint64)) { p.onProgress = f }

// Progress returns the pool's cell counts: cells completed (emitted
// or failed) and cells scheduled so far.
func (p *Pool) Progress() (done, total uint64) {
	return p.cellsDone.Load(), p.cellsTotal.Load()
}

// addTotal registers n scheduled cells.
func (p *Pool) addTotal(n int) {
	if n > 0 {
		p.cellsTotal.Add(uint64(n))
	}
}

// cellDone registers one completed cell and notifies the observer.
func (p *Pool) cellDone() {
	done := p.cellsDone.Add(1)
	if p.onProgress != nil {
		p.onProgress(done, p.cellsTotal.Load())
	}
}

// FailedCells returns the number of cells that failed on this pool.
func (p *Pool) FailedCells() uint64 { return p.failCount.Load() }

// fail registers one failed cell with the pool's accounting and
// reports it on stderr.
func (p *Pool) fail(cell, stage string, rp *recoveredPanic) {
	ce := CellError{Cell: cell, Stage: stage, Err: rp.msg, Stack: rp.stack}
	p.failCount.Add(1)
	p.pendingMu.Lock()
	p.pending = append(p.pending, ce)
	p.pendingMu.Unlock()
	logFailure(ce)
}

// drainPending takes the failures accumulated on this pool since the
// last drain, in deterministic order. Experiments execute sequentially
// per pool, so drained failures always belong to the experiment being
// drained.
func (p *Pool) drainPending() []CellError {
	p.pendingMu.Lock()
	out := p.pending
	p.pending = nil
	p.pendingMu.Unlock()
	sortCellErrors(out)
	return out
}

// Drain asks the pool to stop dispatching: queued and newly spawned
// tasks are dropped, in-flight tasks run to completion, and Run
// returns once the last one finishes. The flag is sticky — subsequent
// Run calls on a drained pool return immediately.
func (p *Pool) Drain() {
	p.drain.Store(true)
	p.mu.Lock()
	s := p.active
	p.mu.Unlock()
	if s != nil {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// Draining reports whether Drain has been called.
func (p *Pool) Draining() bool { return p.drain.Load() }

// Task is one schedulable unit. It may spawn follow-up tasks, which
// land on the spawning worker's own deque (depth-first, keeping
// freshly produced state hot) and are stolen by idle workers, so
// spawned work still spreads across the pool.
type Task func(spawn func(Task))

// sched is the shared state of one Run invocation: one deque per
// worker plus an outstanding-task count for termination. Tasks are
// coarse (a whole simulation cell), so a single mutex is uncontended
// in practice; owners pop their deque LIFO for locality, thieves
// steal FIFO so the oldest (largest) shards migrate first.
type sched struct {
	mu          sync.Mutex
	cond        *sync.Cond
	deques      [][]Task
	outstanding int
	drain       *atomic.Bool
}

func (s *sched) push(w int, t Task) {
	s.mu.Lock()
	s.outstanding++
	s.deques[w] = append(s.deques[w], t)
	s.mu.Unlock()
	s.cond.Signal()
}

// next pops the worker's own deque, stealing on empty. It returns nil
// only when every task has finished — or, under drain, once the queues
// have been discarded and the in-flight tasks have completed.
func (s *sched) next(w int) Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.drain.Load() {
			for i := range s.deques {
				s.outstanding -= len(s.deques[i])
				s.deques[i] = nil
			}
		}
		if d := s.deques[w]; len(d) > 0 {
			t := d[len(d)-1]
			s.deques[w] = d[:len(d)-1]
			return t
		}
		for i := 1; i < len(s.deques); i++ {
			v := w + i
			if v >= len(s.deques) {
				v -= len(s.deques)
			}
			if d := s.deques[v]; len(d) > 0 {
				t := d[0]
				s.deques[v] = d[1:]
				return t
			}
		}
		if s.outstanding == 0 {
			return nil
		}
		s.cond.Wait()
	}
}

func (s *sched) done() {
	s.mu.Lock()
	s.outstanding--
	finished := s.outstanding == 0
	s.mu.Unlock()
	if finished {
		s.cond.Broadcast()
	}
}

// Run executes the tasks — and everything they spawn — across the
// pool and returns when all have finished. With one worker, tasks run
// sequentially in submission order, spawned work depth-first, which is
// also the degenerate scheduling every multi-worker run is equivalent
// to output-wise.
func (p *Pool) Run(tasks []Task) {
	if len(tasks) == 0 {
		return
	}
	// The full pool width is spun up even when the initial task list
	// is shorter: tasks may spawn follow-up work, and a worker idled
	// by a short list parks on the condition variable until spawns
	// arrive or the run drains.
	workers := p.workers
	if workers <= 1 {
		var stack []Task
		spawn := func(t Task) { stack = append(stack, t) }
		for _, t := range tasks {
			if p.drain.Load() {
				return
			}
			p.runTask(t, spawn)
			for len(stack) > 0 {
				if p.drain.Load() {
					return
				}
				n := len(stack) - 1
				st := stack[n]
				stack = stack[:n]
				p.runTask(st, spawn)
			}
		}
		return
	}
	s := &sched{deques: make([][]Task, workers), outstanding: len(tasks), drain: &p.drain}
	s.cond = sync.NewCond(&s.mu)
	for i, t := range tasks {
		s.deques[i%workers] = append(s.deques[i%workers], t)
	}
	p.mu.Lock()
	p.active = s
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.active = nil
		p.mu.Unlock()
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			spawn := func(t Task) { s.push(w, t) }
			for {
				t := s.next(w)
				if t == nil {
					return
				}
				p.runTask(t, spawn)
				s.done()
			}
		}(w)
	}
	wg.Wait()
}

// runTask is the pool's last-resort panic backstop. The scheduler
// guards cell execution itself (with precise cell coordinates); a
// panic reaching here escaped those guards — it is still recorded and
// isolated so one broken task can neither kill the process nor
// deadlock the pool's termination accounting.
func (p *Pool) runTask(t Task, spawn func(Task)) {
	defer func() {
		if r := recover(); r != nil {
			p.fail("(pool task)", "task", &recoveredPanic{msg: panicMessage(r), stack: string(debug.Stack())})
		}
	}()
	t(spawn)
}

// Map runs f(0..n-1) across the pool and returns when all calls have
// finished. f must write its result to an index-addressed location;
// invocation order is unspecified. Each unit counts toward the pool's
// cell progress: the total grows by n up front, done by one per
// returned call (failed units return normally — their guards recover).
func (p *Pool) Map(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	p.addTotal(n)
	tasks := make([]Task, n)
	for i := range tasks {
		i := i
		tasks[i] = func(func(Task)) {
			f(i)
			p.cellDone()
		}
	}
	p.Run(tasks)
}
