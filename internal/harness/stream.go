package harness

import (
	"sync"

	"repro/internal/faultinject"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// table is the sweep engine's stream table: one per Matrix.Run, Mix.Run
// or ablations call, holding the handle of every op stream the
// experiment's cells consume, keyed by stream identity (sim.StreamOf).
// Handles are created before the pool runs; workers only read the
// table. The table, with every handle and kept recording, is freed
// when its experiment ends.
type table struct {
	pool    *Pool
	keep    bool // every handle keeps its recording (stream.keep)
	streams map[sim.StreamID]*stream
	// scripts holds each benchmark's decision script, captured on
	// first use and shared read-only by all its streams, so a fully
	// warm sweep never captures one. A table's cells share one visit
	// count.
	scripts map[string]func() *workload.Script
}

func newTable(pool *Pool, keep bool) *table {
	return &table{pool: pool, keep: keep,
		streams: make(map[sim.StreamID]*stream), scripts: make(map[string]func() *workload.Script)}
}

// handle returns the handle of the op stream a run of (spec, rc)
// consumes, creating it on first use with the benchmark's shared
// decision script and rc as its capture configuration.
func (t *table) handle(spec workload.Spec, rc sim.RunConfig) *stream {
	id := sim.StreamOf(spec, rc)
	if s, ok := t.streams[id]; ok {
		return s
	}
	script, ok := t.scripts[spec.Name]
	if !ok {
		script = sync.OnceValue(func() *workload.Script { return sim.CaptureScript(spec, rc.Visits) })
		t.scripts[spec.Name] = script
	}
	s := &stream{pool: t.pool, id: id, spec: spec, capture: rc, script: script, keep: t.keep}
	t.streams[id] = s
	return s
}

// cellRun is one run a table serves: a benchmark under a configuration.
type cellRun struct {
	spec workload.Spec
	rc   sim.RunConfig
}

// serve groups cells by handle in first-appearance order and runs one
// pool unit per handle through its tiers (stream.run), so cells sharing
// an op stream share its generation pass. Every cell counts toward the
// pool's progress. A failed cell lands on the pool under name(i); every
// other cell's result goes to emit(i, r).
func (t *table) serve(cells []cellRun, name func(i int) string, emit func(i int, r sim.Result)) {
	var handles []*stream
	members := make(map[*stream][]int)
	for i, c := range cells {
		s := t.handle(c.spec, c.rc)
		if _, ok := members[s]; !ok {
			handles = append(handles, s)
		}
		members[s] = append(members[s], i)
	}
	pool := t.pool
	pool.addTotal(len(cells))
	pool.loop(len(handles), func(g int) {
		idx := members[handles[g]]
		rcs := make([]sim.RunConfig, len(idx))
		for j, i := range idx {
			rcs[j] = cells[i].rc
		}
		handles[g].run(rcs, func(j int, r sim.Result, stage string, rp *recoveredPanic) {
			if rp != nil {
				pool.fail(name(idx[j]), stage, rp)
			} else {
				emit(idx[j], r)
			}
			pool.cellDone()
		})
	})
}

// stream is the sweep engine's one tier scheduler: the handle through
// which every cell a table serves — Matrix cells, Mix solo runs,
// ablation points — and every Mix unit obtains one op stream's results
// and recording. It layers the pool's store into three reuse tiers,
// cheapest first:
//
//	tier 1 — result hit: a cell's finished sim.Result is in the store;
//	         emit it, run nothing.
//	tier 2 — stream hit: the stream's recording is in the store;
//	         replay it onto each missing cell's machine
//	         (sim.RunReplayed), skipping the kernel and allocator.
//	tier 3 — miss: capture the stream once, multicast to every cell
//	         that missed (sim.RunFanout), and persist the recording and
//	         the results.
//
// The recording is loaded or captured at most once per handle, on
// first demand, so a repeat sweep is pure tier 1 and reads no
// recordings, and an incremental sweep (one new machine, one new
// policy column) pays generation passes only for the genuinely new
// streams. Every stored artifact is a pure function of its key, so a
// warm sweep emits byte-identical output to a cold one.
//
// A GetRecording miss is a claim on the stream (see StreamAborter):
// the handle settles it with PutRecording once its capture finishes,
// or with AbortStream when the capture panics. A failed capture is not
// retried; every cell waiting on it fails.
type stream struct {
	pool *Pool
	id   sim.StreamID
	spec workload.Spec
	// capture is the configuration the stream is captured under when
	// no cell asks for a result (the first cell that named it).
	capture sim.RunConfig
	script  func() *workload.Script
	// keep tees a recording even without a store and holds the
	// recording, loaded or captured, for the Mix units. Any other
	// handle drops a loaded recording once its cells are served.
	keep bool

	once sync.Once
	rec  *trace.Recording
	fail *recoveredPanic // the capture's panic
}

// run serves the cells rcs — configurations sharing the stream —
// through the tiers, calling done once per cell with its result, or
// with the stage ("replay" or "capture") and panic that failed it. A
// replay panic fails one cell; a capture panic fails every cell the
// pass was for.
func (s *stream) run(rcs []sim.RunConfig, done func(i int, r sim.Result, stage string, rp *recoveredPanic)) {
	st := s.pool.store
	keys := make([]string, len(rcs))
	var missing []int
	var sub []sim.RunConfig
	for i, rc := range rcs {
		if st != nil {
			keys[i] = sim.RunKey(s.spec, rc)
			if r, ok := st.GetRun(keys[i]); ok {
				done(i, r, "", nil)
				continue
			}
		}
		missing = append(missing, i)
		sub = append(sub, rc)
	}
	if len(missing) == 0 {
		return
	}
	rec, results := s.acquire(sub)
	if !s.keep {
		s.rec = nil // no later caller: the table serves a handle once
	}
	for j, i := range missing {
		var r sim.Result
		var stage string
		var rp *recoveredPanic
		switch {
		case results != nil:
			r = results[j]
		case s.fail != nil:
			stage, rp = "capture", s.fail
		default:
			stage = "replay"
			rp = runRecovered(func() {
				faultinject.CheckPanic("cell.panic")
				faultinject.Delay("cell.delay")
				r = sim.RunReplayed(s.spec.Name, rcs[i], rec)
			})
		}
		if rp == nil && st != nil {
			st.PutRun(keys[i], r)
		}
		done(i, r, stage, rp)
	}
}

// acquire is the load-or-capture step, run at most once per handle. It
// returns the stored recording when there is one, else the recording
// of one generation pass fanned out to rcs (run under s.capture when
// rcs is empty, as a Mix unit asks) — nil if that capture failed. The
// call that captured also gets rcs' results; every other call gets nil.
func (s *stream) acquire(rcs []sim.RunConfig) (*trace.Recording, []sim.Result) {
	var results []sim.Result
	s.once.Do(func() {
		st, key := s.pool.store, ""
		if st != nil {
			key = s.id.Key()
			if rec, ok := st.GetRecording(key); ok {
				s.rec = rec
				return
			}
		}
		s.fail = runRecovered(func() {
			faultinject.CheckPanic("cell.panic")
			faultinject.Delay("cell.delay")
			var rec *trace.Recording
			if st != nil || s.keep {
				rec = trace.NewRecording(0)
			}
			sc := s.script()
			s.pool.genPasses.Add(1)
			switch len(rcs) {
			case 0:
				sim.RunScripted(s.spec, s.capture, sc, rec)
			case 1:
				results = []sim.Result{sim.RunScripted(s.spec, rcs[0], sc, rec)}
			default:
				results = sim.RunFanout(s.spec, rcs, sc, rec)
			}
			if st != nil {
				st.PutRecording(key, rec)
			}
			if s.keep {
				s.rec = rec
			}
		})
		if s.fail != nil {
			results = nil
			abortStream(st, key)
		}
	})
	return s.rec, results
}
