package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fig10StyleMatrix mirrors fig10's shape: one machine-only variant
// column against the default baseline.
func fig10StyleMatrix() Matrix {
	slow := machine.Default()
	slow.Hier.ExtraL2L3 = 1
	return Matrix{
		Benches: workload.Fig10Set()[:2],
		Configs: []sim.RunConfig{{Policy: sim.PolicyNone, Machine: slow}},
		Visits:  100,
	}
}

// fig4StyleMatrix mirrors fig4's shape: fixed-pad layout columns.
func fig4StyleMatrix() Matrix {
	return Matrix{
		Benches: workload.Fig10Set()[:2],
		Configs: []sim.RunConfig{
			{Policy: sim.PolicyFull, FixedPad: 1},
			{Policy: sim.PolicyFull, FixedPad: 2},
		},
		Visits: 100,
	}
}

// emitAll runs every registry experiment at small parameters and
// renders the full report in every format, concatenated.
func emitAll(t *testing.T, p Params, pool *Pool) []byte {
	t.Helper()
	var results []Result
	for _, e := range Experiments() {
		results = append(results, Run(e, p, pool)...)
	}
	var buf bytes.Buffer
	for _, format := range []string{"text", "json", "csv"} {
		em, err := NewEmitter(format)
		if err != nil {
			t.Fatal(err)
		}
		if err := em.Emit(&buf, results); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// directRuns is the replay engine's referee store: GetRun answers
// every key with an independent sim.Run of the configuration the key
// names, so a sweep scheduled against it serves every cell — Matrix
// cells, Mix solo runs, ablation points — from its own fresh
// simulation. Every other method misses or does nothing.
type directRuns struct{ t *testing.T }

func (d directRuns) GetRun(key string) (sim.Result, bool) {
	var k struct {
		Bench     string           `json:"bench"`
		BenchSeed int64            `json:"bench_seed"`
		Policy    sim.PolicyChoice `json:"policy"`
		MinPad    int              `json:"min_pad"`
		MaxPad    int              `json:"max_pad"`
		FixedPad  int              `json:"fixed_pad"`
		UseCForm  bool             `json:"use_cform"`
		Seed      int64            `json:"layout_seed"`
		Visits    int              `json:"visits"`
		Heap      *alloc.Config    `json:"heap"`
		Machine   machine.Desc     `json:"machine"`
	}
	if err := json.Unmarshal([]byte(key), &k); err != nil {
		d.t.Errorf("run key %s: %v", key, err)
		return sim.Result{}, false
	}
	spec, _ := workload.ByName(k.Bench)
	rc := sim.RunConfig{
		Policy: k.Policy, MinPad: k.MinPad, MaxPad: k.MaxPad, FixedPad: k.FixedPad,
		UseCForm: k.UseCForm, LayoutSeed: k.Seed, Visits: k.Visits, Heap: k.Heap, Machine: k.Machine,
	}
	if sim.RunKey(spec, rc) != key {
		d.t.Errorf("run key %s does not name a registry configuration", key)
		return sim.Result{}, false
	}
	// The machine is the run key's last field: what precedes it is the
	// cell's stream key, which its stream identity must render.
	if i := strings.LastIndex(key, `,"machine":`); i < 0 || sim.StreamOf(spec, rc).Key() != key[:i]+"}" {
		d.t.Errorf("stream identity of run key %s renders %s", key, sim.StreamOf(spec, rc).Key())
	}
	return sim.Run(spec, rc), true
}

func (directRuns) PutRun(string, sim.Result)                    {}
func (directRuns) GetRecording(string) (*trace.Recording, bool) { return nil, false }
func (directRuns) PutRecording(string, *trace.Recording)        {}
func (directRuns) GetMix(string, any) bool                      { return false }
func (directRuns) PutMix(string, any)                           {}

// TestReplayEngineMatchesDirectRuns is the referee of the trace
// capture/replay engine: for every registry experiment, the default
// path (shared decision scripts, stream-identity grouping, multicast
// fan-out of captured streams) must produce byte-identical emitter
// output to one independent sim.Run per cell — in every format, at
// several worker counts.
func TestReplayEngineMatchesDirectRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry twice")
	}
	p := Params{Visits: 300, Seeds: 2}

	ref := NewPool(2)
	ref.SetStore(directRuns{t})
	direct := emitAll(t, p, ref)

	for _, workers := range []int{1, 3} {
		replayed := emitAll(t, p, NewPool(workers))
		if !bytes.Equal(direct, replayed) {
			t.Fatalf("replay engine output diverges from direct runs at %d workers", workers)
		}
	}
}

// TestTraceKeyGrouping pins the grouping semantics of the stream
// identity (sim.StreamOf) the stream table groups cells by: baseline
// and machine-only variants share a stream; anything that changes
// layouts or allocator behavior does not.
func TestTraceKeyGrouping(t *testing.T) {
	var m Matrix
	idOf := func(cell Cell) sim.StreamID { return sim.StreamOf(m.Benches[cell.Bench], m.Config(cell)) }

	// fig10 shape: one PolicyNone column with a hierarchy override
	// must group with the baseline.
	m = fig10StyleMatrix()
	if idOf(Cell{Bench: 0, Config: -1}) != idOf(Cell{Bench: 0, Config: 0}) {
		t.Fatal("hierarchy-only variant must share the baseline's stream")
	}
	if idOf(Cell{Bench: 0, Config: -1}) == idOf(Cell{Bench: 1, Config: -1}) {
		t.Fatal("different benchmarks must never share a stream")
	}

	// fig4 shape: pad columns change layouts, so every column is its
	// own group.
	m = fig4StyleMatrix()
	if idOf(Cell{Bench: 0, Config: 0}) == idOf(Cell{Bench: 0, Config: 1}) {
		t.Fatal("different pad sizes must not share a stream")
	}
	if idOf(Cell{Bench: 0, Config: -1}) == idOf(Cell{Bench: 0, Config: 0}) {
		t.Fatal("a policied column must not share the baseline's stream")
	}

	// Seed replicas randomize layouts differently.
	m.Seeds = 2
	if idOf(Cell{Bench: 0, Config: 0, Seed: 0}) == idOf(Cell{Bench: 0, Config: 0, Seed: 1}) {
		t.Fatal("different layout-seed replicas must not share a stream")
	}

	// Heap overrides split streams by value: equal configurations held
	// through distinct pointers share one, a changed one does not.
	spec := m.Benches[0]
	h1, h2 := alloc.DefaultConfig(), alloc.DefaultConfig()
	rc1 := sim.RunConfig{Policy: sim.PolicyOpportunistic, UseCForm: true, Heap: &h1}
	rc2 := rc1
	rc2.Heap = &h2
	if sim.StreamOf(spec, rc1) != sim.StreamOf(spec, rc2) {
		t.Fatal("equal heap overrides must share a stream")
	}
	h2.QuarantineFrac = 0.5
	if sim.StreamOf(spec, rc1) == sim.StreamOf(spec, rc2) {
		t.Fatal("different heap overrides must not share a stream")
	}
}

// TestAblationsShareStreams: the ablation points are the cells of one
// stream table, so on a fresh storeless pool the sweep costs one
// generation pass per distinct stream identity — xalancbmk feeding six
// machines, perlbench under four heap configurations, mcf and
// libquantum feeding three MSHR machines each — and counts one cell
// per distinct run. Its tables match one independent sim.Run per
// point.
func TestAblationsShareStreams(t *testing.T) {
	const visits = 200
	ids, keys := map[sim.StreamID]bool{}, map[string]bool{}
	for _, a := range sim.Ablations(visits) {
		for _, pt := range a.Points {
			ids[sim.StreamOf(pt.Spec, pt.RC)] = true
			keys[sim.RunKey(pt.Spec, pt.RC)] = true
		}
	}
	if len(ids) != 7 || len(keys) != 16 {
		t.Fatalf("ablations declare %d streams and %d runs, want 7 and 16", len(ids), len(keys))
	}

	e, _ := Get("ablations")
	pool := NewPool(2)
	got := Run(e, Params{Visits: visits}, pool)
	if n := pool.GenPasses(); n != uint64(len(ids)) {
		t.Errorf("ablations cost %d generation passes, want %d (one per stream)", n, len(ids))
	}
	if done, total := pool.Progress(); done != total || total != uint64(len(keys)) {
		t.Errorf("ablations progress %d/%d, want %d/%d (one cell per run)", done, total, len(keys), len(keys))
	}

	ref := NewPool(2)
	ref.SetStore(directRuns{t})
	if want := Run(e, Params{Visits: visits}, ref); !reflect.DeepEqual(got, want) {
		t.Fatal("shared-stream ablation tables diverge from independent runs")
	}
}
