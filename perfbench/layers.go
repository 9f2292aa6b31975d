package main

// The traced run: per-layer metrics measured from outside the program.
// Nothing here reaches into the layers; it times calls into their
// public functions. The sweep's own probe window (sim.StartProbe) and
// a timing decorator around the store (via Pool.SetStore) cover the
// traced unit itself; afterwards every stream the unit generated is
// re-driven through each layer in isolation, and the differences
// between those passes attribute the unit's CPU time to layers:
//
//	RunScripted, no recording  = generation + core + cache   (workload, cpu, cache)
//	RunScripted with recording = the above + teeing          (trace.record_s)
//	core replay                = decode + core + cache       (split at ResetAt)
//	hierarchy-only replay      = decode + cache
//	null replay                = decode
//
// so workload.gen_s = direct - core replay + null replay, cpu.self_s =
// core - hierarchy-only, and cache.self_s = hierarchy-only - null, each
// summed over the machines a stream is dispatched to. The re-drive only
// apportions: its shares are scaled onto the simulation time the probe
// measured inside the traced unit.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/multicore"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ---- the store decorator ----

// timedStore is a harness.Store around *store.Store that times every
// call. With collect set it also keeps the recordings it serves.
type timedStore struct {
	inner        *store.Store
	getNs, putNs atomic.Int64
	collect      bool
	mu           sync.Mutex
	recs         []*trace.Recording
}

var _ harness.Store = (*timedStore)(nil)

func (t *timedStore) get(start time.Time) { t.getNs.Add(int64(time.Since(start))) }
func (t *timedStore) put(start time.Time) { t.putNs.Add(int64(time.Since(start))) }

func (t *timedStore) GetRun(key string) (sim.Result, bool) {
	defer t.get(time.Now())
	return t.inner.GetRun(key)
}

func (t *timedStore) PutRun(key string, r sim.Result) {
	defer t.put(time.Now())
	t.inner.PutRun(key, r)
}

func (t *timedStore) GetRecording(key string) (*trace.Recording, bool) {
	start := time.Now()
	rec, ok := t.inner.GetRecording(key)
	t.get(start)
	if ok && t.collect {
		t.mu.Lock()
		t.recs = append(t.recs, rec)
		t.mu.Unlock()
	}
	return rec, ok
}

func (t *timedStore) PutRecording(key string, rec *trace.Recording) {
	defer t.put(time.Now())
	t.inner.PutRecording(key, rec)
}

func (t *timedStore) GetMix(key string, v any) bool {
	defer t.get(time.Now())
	return t.inner.GetMix(key, v)
}

func (t *timedStore) PutMix(key string, v any) {
	defer t.put(time.Now())
	t.inner.PutMix(key, v)
}

func (t *timedStore) seconds() (get, put float64) {
	return float64(t.getNs.Load()) / 1e9, float64(t.putNs.Load()) / 1e9
}

// ---- stream plans: the generation passes of a unit ----

// scriptOnce captures one benchmark's decision script on first use, as
// the scheduler does once per benchmark per experiment.
type scriptOnce struct {
	spec   workload.Spec
	visits int
	once   sync.Once
	sc     *workload.Script
	secs   float64
}

func (s *scriptOnce) get() *workload.Script {
	s.once.Do(func() {
		t := time.Now()
		s.sc = sim.CaptureScript(s.spec, s.visits)
		s.secs = time.Since(t).Seconds()
	})
	return s.sc
}

// streamPlan is one generation pass of the unit: the stream's capture
// configuration and every machine its cells dispatch it to.
type streamPlan struct {
	spec     workload.Spec
	rc       sim.RunConfig
	machines []machine.Desc
	script   *scriptOnce
	keep     bool // a mix unit replays the recording afterwards
}

// mixPlan is one multicore unit: the plans whose recordings fill its
// core slots.
type mixPlan struct {
	slots []*streamPlan
	cfg   multicore.Config
}

// unitPlan is everything a sweep unit generates and replays.
type unitPlan struct {
	streams []*streamPlan
	scripts []*scriptOnce
	mixes   []mixPlan
	// stored indexes the streams a store already holds when later
	// experiments of the unit look them up (store workloads only).
	stored map[string]*streamPlan
}

// addMatrix groups a matrix's cells into streams as the scheduler does:
// by stream key, in canonical cell order, one script per benchmark.
func (u *unitPlan) addMatrix(m harness.Matrix) {
	scripts := make([]*scriptOnce, len(m.Benches))
	index := make(map[string]*streamPlan)
	for _, cell := range m.Cells() {
		spec := m.Benches[cell.Bench]
		rc := m.Config(cell)
		key := sim.StreamKey(spec, rc)
		if p, ok := index[key]; ok {
			p.machines = append(p.machines, rc.Machine.OrDefault())
			continue
		}
		if scripts[cell.Bench] == nil {
			scripts[cell.Bench] = &scriptOnce{spec: spec, visits: m.Visits}
			u.scripts = append(u.scripts, scripts[cell.Bench])
		}
		p := &streamPlan{spec: spec, rc: rc, machines: []machine.Desc{rc.Machine.OrDefault()}, script: scripts[cell.Bench]}
		index[key] = p
		u.streams = append(u.streams, p)
		if u.stored != nil {
			u.stored[key] = p
		}
	}
}

// addPolicyMatrix mirrors harness.PolicyMatrix's matrix.
func (u *unitPlan) addPolicyMatrix(cfgs []harness.Fig11Config, visits int) {
	rcs := make([]sim.RunConfig, len(cfgs))
	for i, c := range cfgs {
		rcs[i] = sim.RunConfig{Policy: c.Policy, MinPad: 1, MaxPad: c.MaxPad, UseCForm: c.UseCForm}
	}
	u.addMatrix(harness.Matrix{Benches: workload.Fig11Set(), Configs: rcs, Visits: visits})
}

// addRate mirrors rate4's Mix: each benchmark's baseline and protected
// stream, captured solo on the default machine unless the store already
// holds it, then replayed N-wide on shared-L3 machines for every core
// count.
func (u *unitPlan) addRate(names []string, cores []int, visits int) error {
	prot := sim.RunConfig{Policy: sim.PolicyFull, MinPad: 1, MaxPad: 7, UseCForm: true, Visits: visits}
	base := sim.RunConfig{Policy: sim.PolicyNone, Visits: visits}
	for _, n := range names {
		spec, ok := workload.ByName(n)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", n)
		}
		sc := &scriptOnce{spec: spec, visits: visits}
		var variants []*streamPlan
		for _, rc := range []sim.RunConfig{base, prot} {
			p, ok := u.stored[sim.StreamKey(spec, rc)]
			if !ok {
				p = &streamPlan{spec: spec, rc: rc, machines: []machine.Desc{machine.Default()}, script: sc}
				u.streams = append(u.streams, p)
			}
			p.keep = true
			variants = append(variants, p)
		}
		if variants[0].script == sc || variants[1].script == sc {
			u.scripts = append(u.scripts, sc)
		}
		for _, c := range cores {
			for _, p := range variants {
				slots := make([]*streamPlan, c)
				for i := range slots {
					slots[i] = p
				}
				u.mixes = append(u.mixes, mixPlan{slots: slots})
			}
		}
	}
	return nil
}

// planFor returns the generation passes of one unit of the workload.
func planFor(name string, visits int) (*unitPlan, error) {
	u := &unitPlan{}
	switch name {
	case "policy-cold":
		u.addPolicyMatrix(harness.Fig11Configs(), visits)
		u.addPolicyMatrix(harness.Fig12Configs(), visits)
	case "fanout-store":
		// sens-machine writes the baseline and full 1-7B CFORM streams of
		// rate4's benchmarks into the store first, so rate4 reads them
		// back instead of generating them.
		u.stored = make(map[string]*streamPlan)
		u.addMatrix(harness.Matrix{
			Benches: workload.Fig10Set(),
			Configs: []sim.RunConfig{
				{Policy: sim.PolicyFull, FixedPad: 4},
				{Policy: sim.PolicyFull, MinPad: 1, MaxPad: 7, UseCForm: true},
			},
			Machines: machine.Machines(),
			Visits:   visits,
		})
		if err := u.addRate([]string{"perlbench", "povray", "gobmk", "sjeng", "astar"}, []int{1, 2, 4}, visits); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("no stream plan for %s", name)
	}
	return u, nil
}

// ---- re-driving a stream through each layer ----

// hierSink dispatches a replayed stream straight to the cache
// hierarchy, skipping the timing core.
type hierSink struct{ h *cache.Hierarchy }

func (s hierSink) RunBatch(b *trace.Batch) {
	ops := b.Ops()
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case trace.Load:
			s.h.LoadTouch(op.Addr, int(op.Size))
		case trace.Store:
			s.h.StoreTouch(op.Addr, int(op.Size))
		case trace.CForm:
			s.h.CForm(op.CFORM())
		}
	}
}

func (s hierSink) NonMem(uint32)                {}
func (s hierSink) Load(a uint64, n int, _ bool) { s.h.LoadTouch(a, n) }
func (s hierSink) Store(a uint64, n int)        { s.h.StoreTouch(a, n) }
func (s hierSink) CForm(cf isa.CFORM)           { s.h.CForm(cf) }
func (s hierSink) WhitelistEnter()              {}
func (s hierSink) WhitelistExit()               {}

// nullSink consumes a replayed stream and does nothing with it, so a
// replay into it times decoding alone.
type nullSink struct{}

func (nullSink) RunBatch(*trace.Batch)  {}
func (nullSink) NonMem(uint32)          {}
func (nullSink) Load(uint64, int, bool) {}
func (nullSink) Store(uint64, int)      {}
func (nullSink) CForm(isa.CFORM)        {}
func (nullSink) WhitelistEnter()        {}
func (nullSink) WhitelistExit()         {}

// streamCost is one stream's layer timings and work counts.
type streamCost struct {
	direct, record, null float64
	coreCapture          float64 // core replay on the capture machine
	core, hier           float64 // summed over the dispatch machines
	warm, measured       float64 // core replay split at ResetAt, summed
	encode               float64 // MarshalBinary, as a store put pays it
	encBytes             int
	warmOps, measOps     uint64
	cforms, heapBytes    uint64
	l1, l2, l3           uint64 // measured-region misses, summed over machines
	spills, fills        uint64
	mismatch             string // replay disagreed with the direct run
	rec                  *trace.Recording
}

// redrive re-runs one stream through every layer pass.
func redrive(p *streamPlan) streamCost {
	var c streamCost
	sc := p.script.get()
	t := time.Now()
	direct := sim.RunScripted(p.spec, p.rc, sc, nil)
	c.direct = time.Since(t).Seconds()
	rec := trace.NewRecording(0)
	t = time.Now()
	sim.RunScripted(p.spec, p.rc, sc, rec)
	c.record = time.Since(t).Seconds() - c.direct
	c.cforms, c.heapBytes = direct.CForms, direct.HeapBytes
	boundary := rec.ResetAt()
	if boundary < 0 {
		boundary = rec.Len()
	}
	c.warmOps, c.measOps = uint64(boundary), uint64(rec.Len()-boundary)

	b := trace.NewBatch(trace.DefaultBatchCap)
	for i, d := range p.machines {
		// Core replay, split at the measurement boundary as
		// sim.RunReplayed splits it.
		t0 := time.Now()
		hier := cache.New(d.Hier, mem.New())
		core := cpu.New(d.Core, hier)
		rec.ReplayRange(core, b, 0, boundary)
		t1 := time.Now()
		if rec.ResetAt() >= 0 {
			core.ResetTiming()
			hier.ResetStats()
		}
		rec.ReplayRange(core, b, boundary, rec.Len())
		t2 := time.Now()
		total := t2.Sub(t0).Seconds()
		if i == 0 {
			c.coreCapture = total
			if core.Stats.Instructions != direct.Instructions || core.Cycles() != direct.Cycles {
				c.mismatch = fmt.Sprintf("%s/%s: core replay retired %d instructions in %.0f cycles, direct run %d in %.0f",
					p.spec.Name, p.rc.Policy, core.Stats.Instructions, core.Cycles(), direct.Instructions, direct.Cycles)
			}
		}
		c.core += total
		c.warm += t1.Sub(t0).Seconds()
		c.measured += t2.Sub(t1).Seconds()
		c.l1 += hier.L1Stats().Misses
		c.l2 += hier.L2Stats().Misses
		c.l3 += hier.L3Stats().Misses
		c.spills += hier.Stats.Spills
		c.fills += hier.Stats.Fills
		hier.Release()

		t0 = time.Now()
		h := cache.New(d.Hier, mem.New())
		rec.ReplayRange(hierSink{h}, b, 0, rec.Len())
		c.hier += time.Since(t0).Seconds()
		h.Release()
	}
	t = time.Now()
	rec.ReplayRange(nullSink{}, b, 0, rec.Len())
	c.null = time.Since(t).Seconds()

	t = time.Now()
	data, err := rec.MarshalBinary()
	c.encode = time.Since(t).Seconds()
	c.encBytes = len(data)
	if err != nil && c.mismatch == "" {
		c.mismatch = fmt.Sprintf("%s: encoding the recording: %v", p.spec.Name, err)
	}
	if p.keep {
		c.rec = rec
	}
	return c
}

// parallel runs f(0..n-1) on the benchmark's worker count.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// redriveAll re-drives every stream of the plan and then every mix
// unit, on the benchmark's worker count.
func redriveAll(u *unitPlan) ([]streamCost, []float64) {
	costs := make([]streamCost, len(u.streams))
	index := make(map[*streamPlan]int, len(u.streams))
	for i, p := range u.streams {
		index[p] = i
	}
	parallel(len(u.streams), func(i int) { costs[i] = redrive(u.streams[i]) })
	mixSecs := make([]float64, len(u.mixes))
	parallel(len(u.mixes), func(i int) {
		m := u.mixes[i]
		streams := make([]multicore.Stream, len(m.slots))
		for s, p := range m.slots {
			streams[s] = multicore.Stream{Name: p.spec.Name, Rec: costs[index[p]].rec}
		}
		t := time.Now()
		multicore.Run(m.cfg, streams)
		mixSecs[i] = time.Since(t).Seconds()
	})
	return costs, mixSecs
}

// ---- the traced sweep run ----

// layerMetrics is the full per-layer metric set, zero-filled: every
// workload reports every name, with zeros where a layer is idle.
func layerMetrics() map[string]metric {
	ms := make(map[string]metric)
	for _, d := range perLayerNames {
		ms[d.name] = metric{0, d.unit}
	}
	return ms
}

// perLayerNames lists every per-layer metric with its unit.
var perLayerNames = []struct{ name, unit string }{
	{"workload.gen_s", "s"}, {"workload.script_s", "s"}, {"workload.warmup_ops", "count"}, {"workload.measured_ops", "count"},
	{"alloc.cforms", "count"}, {"alloc.heap_mb", "MB"},
	{"cpu.self_s", "s"},
	{"cache.self_s", "s"}, {"cache.l1_misses", "count"}, {"cache.l2_misses", "count"}, {"cache.l3_misses", "count"},
	{"cache.spills", "count"}, {"cache.fills", "count"},
	{"sim.gen_passes", "count"}, {"sim.instr", "count"}, {"sim.setup_s", "s"}, {"sim.direct_s", "s"},
	{"sim.capture_s", "s"}, {"sim.replay_s", "s"}, {"sim.replay_warmup_s", "s"}, {"sim.replay_measured_s", "s"},
	{"harness.cells", "count"}, {"harness.failed_cells", "count"}, {"harness.busy_frac", "ratio"}, {"harness.emit_s", "s"},
	{"trace.decode_s", "s"}, {"trace.record_s", "s"}, {"trace.codec_s", "s"}, {"trace.rec_mb", "MB"},
	{"multicore.run_s", "s"}, {"multicore.units", "count"},
	{"store.get_s", "s"}, {"store.put_s", "s"}, {"store.hits", "count"}, {"store.misses", "count"}, {"store.puts", "count"},
	{"store.read_mb", "MB"}, {"store.write_mb", "MB"}, {"store.hit_ratio", "ratio"},
	{"server.submit_s", "s"}, {"server.poll_s", "s"}, {"server.result_s", "s"}, {"server.polls_per_job", "count"}, {"server.overhead_s", "s"},
	{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_cpu_s", "s"},
	{"unattributed_s", "s"}, {"tracing_overhead_s", "s"}, {"redrive_scale", "ratio"},
	{"host.ref_s", "s"}, {"host.steal_s", "s"},
}

// set overwrites a metric's value, keeping its declared unit.
func set(ms map[string]metric, name string, v float64) {
	m, ok := ms[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	m.Value = v
	ms[name] = m
}

// sweepTraced is a sweep's traced run: one untraced unit, one traced
// unit (probe window, store decorator, runtime/metrics), then the
// re-drive of every stream the unit generated.
func sweepTraced(def sweepDef, cfg config, log io.Writer) (result, error) {
	pin := cfg.pins.sweep(def.name)
	c := &checks{log: log}
	host := startHostProbe()

	plain, _, err := measuredUnit(def, cfg, nil)
	if err != nil {
		return result{}, err
	}
	host.sample()
	plain.check(c, pin)

	var ts *timedStore
	var probe sim.ProbeTotals
	var rt runtimeSnap
	traced, _, err := measuredUnit(def, cfg, func(rig *sweepRig) {
		if rig.st != nil {
			ts = &timedStore{inner: rig.st}
			rig.pool.SetStore(ts)
		}
		rt = readRuntime()
		sim.StartProbe()
	})
	probe = sim.StopProbe()
	rt = readRuntime().since(rt)
	if err != nil {
		return result{}, err
	}
	host.sample()
	traced.check(c, pin)
	c.equal("sim.instr", probe.Ops, pin.Instr)
	c.equal("probe sim.gen_passes", probe.GenPasses, pin.GenPasses)
	fmt.Fprintf(log, "untraced unit %.3f s, traced unit %.3f s (cpu %.3f s)\n", plain.wall, traced.wall, traced.cpu)

	plan, err := planFor(def.name, cfg.size.SweepVisits)
	if err != nil {
		return result{}, err
	}
	c.equal("re-driven streams", uint64(len(plan.streams)), pin.GenPasses)
	t := time.Now()
	costs, mixSecs := redriveAll(plan)
	fmt.Fprintf(log, "re-drove %d streams and %d mix units in %.3f s\n", len(costs), len(mixSecs), time.Since(t).Seconds())

	// Per-stream self times from the passes. The region records only
	// on the store workload, and a stream's sibling machines dispatch
	// the multicast batches without decoding them.
	var gen, cpuSelf, cacheSelf, record, null, encode, warm, meas float64
	var encBytes, warmOps, measOps, cforms, heapBytes, l1, l2, l3, spills, fills uint64
	for i, sc := range costs {
		if sc.mismatch != "" {
			c.fail("stream %d: %s", i, sc.mismatch)
		}
		n := float64(len(plan.streams[i].machines))
		gen += sc.direct - sc.coreCapture + sc.null
		cpuSelf += sc.core - sc.hier
		cacheSelf += sc.hier - n*sc.null
		if def.store {
			record += sc.record
		}
		null += sc.null
		encode += sc.encode
		warm += sc.warm
		meas += sc.measured
		encBytes += uint64(sc.encBytes)
		warmOps += sc.warmOps
		measOps += sc.measOps
		cforms += sc.cforms
		heapBytes += sc.heapBytes
		l1, l2, l3 = l1+sc.l1, l2+sc.l2, l3+sc.l3
		spills, fills = spills+sc.spills, fills+sc.fills
	}
	var script, mixTotal float64
	for _, s := range plan.scripts {
		script += s.secs
	}
	for _, s := range mixSecs {
		mixTotal += s
	}
	// The re-drive runs minutes after the traced unit, and the host's
	// speed drifts in between. So the passes only apportion: their
	// shares are scaled onto the simulation time the probe measured in
	// the traced unit itself (scripts, machine builds, generation,
	// dispatch and multicore replay), and redrive_scale reports the
	// factor (1 when the re-drive ran at the unit's speed).
	region := probe.SetupSeconds + probe.SimSeconds + probe.CaptureSeconds + probe.ReplaySeconds
	k := region / (script + gen + cpuSelf + cacheSelf + record + mixTotal)

	ms := layerMetrics()
	set(ms, "workload.gen_s", k*gen)
	set(ms, "workload.script_s", k*script)
	set(ms, "workload.warmup_ops", float64(warmOps))
	set(ms, "workload.measured_ops", float64(measOps))
	set(ms, "alloc.cforms", float64(cforms))
	set(ms, "alloc.heap_mb", float64(heapBytes)/1e6)
	set(ms, "cpu.self_s", k*cpuSelf)
	set(ms, "cache.self_s", k*cacheSelf)
	set(ms, "cache.l1_misses", float64(l1))
	set(ms, "cache.l2_misses", float64(l2))
	set(ms, "cache.l3_misses", float64(l3))
	set(ms, "cache.spills", float64(spills))
	set(ms, "cache.fills", float64(fills))
	set(ms, "sim.gen_passes", float64(probe.GenPasses))
	set(ms, "sim.instr", float64(probe.Ops))
	set(ms, "sim.setup_s", probe.SetupSeconds)
	set(ms, "sim.direct_s", probe.SimSeconds)
	set(ms, "sim.capture_s", probe.CaptureSeconds)
	set(ms, "sim.replay_s", probe.ReplaySeconds)
	set(ms, "sim.replay_warmup_s", k*warm)
	set(ms, "sim.replay_measured_s", k*meas)
	set(ms, "harness.cells", float64(traced.cells))
	set(ms, "harness.failed_cells", float64(traced.failed))
	set(ms, "harness.busy_frac", region/(workers*traced.wall))
	set(ms, "harness.emit_s", traced.emit)
	set(ms, "redrive_scale", k)

	attributed := region + traced.emit
	if def.store {
		// Only the store workload records, encodes and replays
		// recordings; policy-cold's trace, multicore and store layers
		// stay idle and report zero.
		get, put := ts.seconds()
		set(ms, "trace.record_s", k*record)
		set(ms, "trace.decode_s", k*null)
		set(ms, "trace.codec_s", encode)
		set(ms, "trace.rec_mb", float64(encBytes)/1e6)
		set(ms, "multicore.run_s", k*mixTotal)
		set(ms, "multicore.units", float64(len(mixSecs)))
		setStore(ms, get, put, ts.inner.Counters(), 1)
		attributed += get + put
	}
	set(ms, "runtime.alloc_mb", rt.allocBytes/1e6)
	set(ms, "runtime.gc_cycles", rt.gcCycles)
	set(ms, "runtime.gc_cpu_s", rt.gcCPU)
	set(ms, "unattributed_s", traced.cpu-attributed)
	set(ms, "tracing_overhead_s", traced.wall-plain.wall)
	for n, m := range host.metrics() {
		set(ms, n, m.Value)
	}
	failed := int(plain.failed+traced.failed) + c.failures
	return result{Correct: failed == 0, Attempted: int(plain.cells + traced.cells), Failed: failed, Metrics: ms}, nil
}

// setStore fills the store metrics from decorator timings and handle
// counters, divided by the number of units they span.
func setStore(ms map[string]metric, get, put float64, c store.Counters, units float64) {
	set(ms, "store.get_s", get/units)
	set(ms, "store.put_s", put/units)
	set(ms, "store.hits", float64(c.Hits)/units)
	set(ms, "store.misses", float64(c.Misses)/units)
	set(ms, "store.puts", float64(c.Puts)/units)
	set(ms, "store.read_mb", float64(c.BytesRead)/1e6/units)
	set(ms, "store.write_mb", float64(c.BytesWritten)/1e6/units)
	if lookups := c.Hits + c.Misses; lookups > 0 {
		set(ms, "store.hit_ratio", float64(c.Hits)/float64(lookups))
	}
}

// ---- the traced service run ----

// harnessOnlyOut is what the harness-only pass measured.
type harnessOnlyOut struct {
	wall, emit    float64 // per job: median wall, mean emit time
	get           float64 // store time summed over every job
	counters      store.Counters
	decode, recMB float64 // per job: decoding the recordings one job reads
}

// harnessOnly runs the service's job spec through harness.Run with no
// server, on a read-only handle to the service's store, HarnessReps
// times.
func (r *serviceRig) harnessOnly(rng *rand.Rand, c *checks) (harnessOnlyOut, error) {
	ro, err := store.Open(filepath.Join(r.dataDir, "store"), store.Options{ReadOnly: true})
	if err != nil {
		return harnessOnlyOut{}, err
	}
	spec, err := harness.SweepSpec{Experiments: serviceExps, Visits: r.cfg.size.ServiceVisits}.Resolve()
	if err != nil {
		return harnessOnlyOut{}, err
	}
	ts := &timedStore{inner: ro}
	reps := r.cfg.size.HarnessReps
	var walls []float64
	var emit float64
	formats := harness.Formats()
	for i := 0; i < reps; i++ {
		f := formats[rng.Intn(len(formats))]
		em, err := harness.NewEmitter(f)
		if err != nil {
			return harnessOnlyOut{}, err
		}
		ts.collect = i == 0
		pool := harness.NewPool(workers)
		pool.SetStore(ts)
		gen0 := sim.GenerationPasses()
		t0 := time.Now()
		var results []harness.Result
		for _, name := range spec.Names {
			e, _ := harness.Get(name)
			results = append(results, harness.Run(e, spec.Params, pool)...)
		}
		te := time.Now()
		var buf bytes.Buffer
		err = em.Emit(&buf, results)
		end := time.Now()
		if err != nil {
			return harnessOnlyOut{}, err
		}
		walls = append(walls, end.Sub(t0).Seconds())
		emit += end.Sub(te).Seconds()
		if !bytes.Equal(buf.Bytes(), r.refs[f]) {
			c.fail("harness-only %s report differs from the served bytes (%s)", f, firstDiff(buf.Bytes(), r.refs[f]))
		}
		c.equal("harness-only sim.gen_passes", sim.GenerationPasses()-gen0, uint64(0))
	}
	get, _ := ts.seconds()
	out := harnessOnlyOut{wall: median(walls), emit: emit / float64(reps), get: get, counters: ro.Counters()}
	for _, rec := range ts.recs {
		data, err := rec.MarshalBinary()
		if err != nil {
			return out, err
		}
		back := trace.NewRecording(0)
		t := time.Now()
		if err := back.UnmarshalBinary(data); err != nil {
			return out, err
		}
		out.decode += time.Since(t).Seconds()
		out.recMB += float64(len(data)) / 1e6
	}
	return out, nil
}

// serviceTraced is service-warm's traced run: an untraced closed-loop
// region, a traced one (probe window, runtime/metrics, client time per
// request kind), then the job spec through harness.Run alone. Per-layer
// figures are per job.
func serviceTraced(cfg config, log io.Writer) (result, error) {
	rig, err := newServiceRig(cfg)
	if err != nil {
		return result{}, err
	}
	defer rig.close()
	pin := cfg.pins.ServiceWarm
	c := &checks{log: log}
	rig.checkSetup(c, pin)
	host := startHostProbe()

	plain, err := rig.closedLoop(rand.New(rand.NewSource(cfg.seed)), c, pin)
	if err != nil {
		return result{}, err
	}
	host.sample()
	settle()
	rt := readRuntime()
	sim.StartProbe()
	traced, err := rig.closedLoop(rand.New(rand.NewSource(cfg.seed)), c, pin)
	probe := sim.StopProbe()
	rt = readRuntime().since(rt)
	if err != nil {
		return result{}, err
	}
	host.sample()
	c.equal("traced region sim.gen_passes", probe.GenPasses, uint64(0))
	if len(traced.blockLatency) == 0 || len(plain.blockLatency) == 0 {
		return result{}, fmt.Errorf("no block of jobs succeeded")
	}
	ho, err := rig.harnessOnly(rand.New(rand.NewSource(cfg.seed)), c)
	if err != nil {
		return result{}, err
	}

	jobs := float64(traced.jobs) // the probe window holds the warm-up block too
	var submit, poll, res, polls []float64
	for _, j := range traced.ok {
		submit = append(submit, j.submit)
		poll = append(poll, j.poll)
		res = append(res, j.result)
		polls = append(polls, float64(j.polls))
	}
	wall, plainWall := median(traced.blockLatency), median(plain.blockLatency)
	ms := layerMetrics()
	set(ms, "sim.gen_passes", float64(probe.GenPasses))
	set(ms, "sim.instr", float64(probe.Ops)/jobs)
	set(ms, "sim.setup_s", probe.SetupSeconds/jobs)
	set(ms, "sim.direct_s", probe.SimSeconds/jobs)
	set(ms, "sim.capture_s", probe.CaptureSeconds/jobs)
	set(ms, "sim.replay_s", probe.ReplaySeconds/jobs)
	set(ms, "harness.cells", float64(traced.ok[0].view.Progress.Total))
	set(ms, "harness.failed_cells", float64(traced.ok[0].view.FailedCells))
	busy := probe.SetupSeconds + probe.SimSeconds + probe.CaptureSeconds + probe.ReplaySeconds
	set(ms, "harness.busy_frac", busy/(workers*traced.wall))
	set(ms, "harness.emit_s", ho.emit)
	set(ms, "trace.codec_s", ho.decode)
	set(ms, "trace.rec_mb", ho.recMB)
	setStore(ms, ho.get, 0, ho.counters, float64(cfg.size.HarnessReps))
	set(ms, "server.submit_s", median(submit))
	set(ms, "server.poll_s", median(poll))
	set(ms, "server.result_s", median(res))
	set(ms, "server.polls_per_job", mean(polls))
	set(ms, "server.overhead_s", wall-ho.wall)
	set(ms, "runtime.alloc_mb", rt.allocBytes/1e6/jobs)
	set(ms, "runtime.gc_cycles", rt.gcCycles/jobs)
	set(ms, "runtime.gc_cpu_s", rt.gcCPU/jobs)
	set(ms, "unattributed_s", median(traced.blockCPU)-ho.get/float64(cfg.size.HarnessReps)-ho.emit)
	set(ms, "tracing_overhead_s", wall-plainWall)
	for n, m := range host.metrics() {
		set(ms, n, m.Value)
	}
	fmt.Fprintf(log, "job wall (median block mean): untraced %.4f s over %d jobs; traced %.4f s over %d jobs; harness-only %.4f s\n",
		plainWall, len(plain.latency), wall, len(traced.latency), ho.wall)
	return result{
		Correct:   c.failures == 0,
		Attempted: plain.jobs + traced.jobs,
		Failed:    c.failures,
		Metrics:   ms,
	}, nil
}
