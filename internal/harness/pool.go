package harness

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool is a fixed-width worker pool. Experiments shard their run
// units over it with Map, and stream tables (Matrix.Run, Mix.Run, the
// ablations) their op-stream groups: each worker takes the next unit
// index from a shared counter until the indices run out. Unit results
// are written to index-addressed slots, so scheduling order never
// leaks into output.
//
// Drain is the graceful-shutdown half of the failure layer: once
// called, no further unit starts while in-flight units finish, and
// every later Map or stream-table sweep returns immediately — the
// signal handler in cmd/califorms-bench drains the pool, flushes store
// and journal, and exits resumable.
//
// Beyond scheduling, a Pool is the per-sweep execution context and the
// only home of a sweep's state: its store (SetStore — the one every
// tier reads), its progress counters (SetProgress), its failed cells
// (FailedCells) and the generation passes its sweeps ran (GenPasses).
// That is what lets several sweeps run concurrently in one process —
// califorms-server executes each job on its own Pool with its own
// journal-backed store, and neither the failure tables, the progress
// counts nor the generation-pass counts of concurrent jobs can bleed
// into each other.
type Pool struct {
	workers int
	drain   atomic.Bool

	// store is the sweep's store; nil runs every cell. Set before the
	// sweep starts, never concurrently with a running sweep.
	store Store

	// genPasses counts the workload generation passes this pool's
	// sweeps ran: the stream-handle captures the store could not serve.
	genPasses atomic.Uint64

	// Progress accounting: total counts every scheduled sweep cell
	// (stream-table cells, mix units, Map units), done every cell that
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
// never concurrently with a running sweep — it is sweep setup, not a
// hot-path knob.
func (p *Pool) SetStore(s Store) { p.store = s }

// Store returns the store installed by SetStore (nil without one).
func (p *Pool) Store() Store { return p.store }

// GenPasses returns the number of workload generation passes this
// pool's sweeps have run. It counts only this pool's work, so it is
// exact however many pools run at once.
func (p *Pool) GenPasses() uint64 { return p.genPasses.Load() }

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

// Drain asks the pool to stop dispatching: no further unit starts,
// in-flight units run to completion, and the running Map or
// stream-table sweep returns once the last one finishes. The flag is
// sticky — later calls on a drained pool return immediately.
func (p *Pool) Drain() { p.drain.Store(true) }

// Draining reports whether Drain has been called.
func (p *Pool) Draining() bool { return p.drain.Load() }

// loop runs f(0..n-1) on up to Workers goroutines and returns when all
// started calls have returned. Each worker takes the next index from a
// shared counter until the indices run out or Drain is called: no unit
// adds work to the pool, so an idle worker has nothing to wait for.
func (p *Pool) loop(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(p.workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !p.drain.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				p.runUnit(f, i)
			}
		}()
	}
	wg.Wait()
}

// runUnit is the pool's last-resort panic backstop. The sweep engine
// guards cell execution itself (with precise cell coordinates); a
// panic reaching here escaped those guards — it is still recorded and
// isolated so one broken unit can neither kill the process nor stop
// its worker.
func (p *Pool) runUnit(f func(i int), i int) {
	defer func() {
		if r := recover(); r != nil {
			p.fail("(pool task)", "task", &recoveredPanic{msg: panicMessage(r), stack: string(debug.Stack())})
		}
	}()
	f(i)
}

// Map runs f(0..n-1) across the pool and returns when all calls have
// finished. f must write its result to an index-addressed location;
// invocation order is unspecified. Each unit counts toward the pool's
// cell progress: the total grows by n up front, done by one per
// finished call — a unit that panics past its own guard included.
func (p *Pool) Map(n int, f func(i int)) {
	p.addTotal(n)
	p.loop(n, func(i int) {
		defer p.cellDone()
		f(i)
	})
}
