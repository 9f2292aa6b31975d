package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// withStore installs a fresh on-disk store on pool for the rest of
// the test.
func withStore(t *testing.T, pool *Pool) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	pool.SetStore(s)
	return s
}

// TestWarmSweepByteIdenticalAndZeroGenPasses is the store's referee:
// the full registry, run cold into an empty store and then warm out of
// it, must emit byte-identical reports in every format — and the warm
// pass must perform zero generation passes. A storeless run must match
// both (the store changes cost, never content).
func TestWarmSweepByteIdenticalAndZeroGenPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry three times")
	}
	p := Params{Visits: 200, Seeds: 2}
	pool := NewPool(2)

	plain := emitAll(t, p, pool)

	s := withStore(t, pool)
	before, poolBefore := sim.GenerationPasses(), pool.GenPasses()
	cold := emitAll(t, p, pool)
	if !bytes.Equal(plain, cold) {
		t.Fatal("store-enabled cold sweep diverges from storeless output")
	}
	// The pool counts every generation pass its sweeps run: matrix
	// captures, mix captures and direct (ablation) runs alike.
	if n, want := pool.GenPasses()-poolBefore, sim.GenerationPasses()-before; n != want {
		t.Errorf("cold sweep: pool counted %d generation passes, the process %d", n, want)
	}
	before = sim.GenerationPasses()
	warm := emitAll(t, p, pool)
	if n := sim.GenerationPasses() - before; n != 0 {
		t.Errorf("warm sweep performed %d generation passes, want 0", n)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm sweep output diverges from cold")
	}
	if c := s.Counters(); c.Hits == 0 {
		t.Errorf("warm sweep recorded no store hits: %+v", c)
	}
}

// TestIncrementalMachineSweepIsReplayOnly: widening a cold sweep's
// machine axis must not pay any generation pass — the new machine
// columns replay the stored streams.
func TestIncrementalMachineSweepIsReplayOnly(t *testing.T) {
	slow := machine.Default()
	slow.Hier.ExtraL2L3 = 1
	m := Matrix{
		Benches: workload.Fig10Set()[:2],
		Configs: []sim.RunConfig{{Policy: sim.PolicyFull, MinPad: 1, MaxPad: 7, UseCForm: true}},
		Visits:  200,
	}
	pool := NewPool(2)

	// Independent reference for the widened sweep, storeless.
	wide := m
	wide.Machines = []machine.Desc{machine.Default(), slow}
	want := wide.Run(pool)

	withStore(t, pool)
	m.Run(pool) // cold: captures every stream on the default machine

	before := sim.GenerationPasses()
	got := wide.Run(pool)
	if n := sim.GenerationPasses() - before; n != 0 {
		t.Errorf("incremental machine sweep performed %d generation passes, want 0", n)
	}
	if !reflect.DeepEqual(got.Base, want.Base) || !reflect.DeepEqual(got.Runs, want.Runs) {
		t.Fatal("incremental machine sweep diverges from independent runs")
	}
}

// TestIncrementalConfigSweepCapturesOnlyDelta: adding one policy
// column to a warmed sweep pays exactly one generation pass per new
// stream (bench × new column), nothing for the cells already stored.
func TestIncrementalConfigSweepCapturesOnlyDelta(t *testing.T) {
	m := Matrix{
		Benches: workload.Fig10Set()[:2],
		Configs: []sim.RunConfig{{Policy: sim.PolicyFull, FixedPad: 1}},
		Visits:  200,
	}
	pool := NewPool(2)
	withStore(t, pool)
	m.Run(pool)

	wider := m
	wider.Configs = append(wider.Configs, sim.RunConfig{Policy: sim.PolicyFull, FixedPad: 2})
	before := sim.GenerationPasses()
	wider.Run(pool)
	want := uint64(len(m.Benches)) // one new stream per benchmark
	if n := sim.GenerationPasses() - before; n != want {
		t.Errorf("incremental config sweep performed %d generation passes, want %d", n, want)
	}
}

// claimStore wraps a Store and referees the claim protocol: every
// GetRecording miss opens a claim on its key, which the sweep must
// settle exactly once, by PutRecording or AbortStream.
type claimStore struct {
	Store
	t *testing.T

	mu                         sync.Mutex
	gets, claims, puts, aborts int
	open                       map[string]int // unsettled claims per key
}

func newClaimStore(t *testing.T, st Store) *claimStore {
	return &claimStore{Store: st, t: t, open: make(map[string]int)}
}

func (c *claimStore) GetRecording(key string) (*trace.Recording, bool) {
	rec, ok := c.Store.GetRecording(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	if !ok {
		c.claims++
		c.open[key]++
	}
	return rec, ok
}

func (c *claimStore) PutRecording(key string, rec *trace.Recording) {
	c.settle(key, &c.puts, "PutRecording")
	c.Store.PutRecording(key, rec)
}

func (c *claimStore) AbortStream(key string) {
	c.settle(key, &c.aborts, "AbortStream")
	abortStream(c.Store, key)
}

func (c *claimStore) settle(key string, n *int, how string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.open[key] == 0 {
		c.t.Errorf("%s settles no open claim on %s", how, key)
		return
	}
	c.open[key]--
	*n++
}

// checkSettled fails the test for every claim still open.
func (c *claimStore) checkSettled() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, n := range c.open {
		if n != 0 {
			c.t.Errorf("%d unsettled claim(s) on %s", n, key)
		}
	}
}

// TestMixWarmRunIsPureLookup: a repeated mix sweep must serve both
// stages from the store — zero generation passes, identical tables —
// and read no recordings, since it replays none.
func TestMixWarmRunIsPureLookup(t *testing.T) {
	mx := Mix{
		Tuples: []MixTuple{mixTuple("mcf", "perlbench")},
		Config: mixProtConfig(),
		Cores:  []int{2},
		Seeds:  2,
		Visits: 200,
	}
	pool := NewPool(2)
	cs := newClaimStore(t, withStore(t, pool))
	pool.SetStore(cs)
	cold := mixTables(mx.Run(pool))
	cs.checkSettled()

	before, gets := sim.GenerationPasses(), cs.gets
	warm := mixTables(mx.Run(pool))
	if n := sim.GenerationPasses() - before; n != 0 {
		t.Errorf("warm mix sweep performed %d generation passes, want 0", n)
	}
	if n := cs.gets - gets; n != 0 {
		t.Errorf("warm mix sweep made %d GetRecording calls, want 0", n)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm mix tables diverge from cold")
	}
}

// lostRecordingsMix has six distinct streams (two benchmarks × the
// baseline and two seeds), and each mcf stream feeds two units — a
// one-core and a two-core machine — so concurrent units share a
// stream handle.
func lostRecordingsMix() Mix {
	return Mix{
		Tuples: []MixTuple{mixTuple("mcf", "perlbench")},
		Config: mixProtConfig(),
		Cores:  []int{1, 2},
		Seeds:  2,
		Visits: 200,
	}
}

// TestMixLostRecordingsRecapture: a store that kept its solo results
// but lost its recordings and mix units makes the units capture each
// stream again — one generation pass per distinct stream, each claim
// settled by a PutRecording — and the rerun emits identical tables.
func TestMixLostRecordingsRecapture(t *testing.T) {
	mx := lostRecordingsMix()
	pool := NewPool(2)
	s := withStore(t, pool)
	want := mixTables(mx.Run(pool))
	for _, kind := range []string{store.KindRec, store.KindMix} {
		if err := os.RemoveAll(filepath.Join(s.Dir(), store.CodeVersion, kind)); err != nil {
			t.Fatal(err)
		}
	}

	fresh := NewPool(2)
	cs := newClaimStore(t, s)
	fresh.SetStore(cs)
	got := mixTables(mx.Run(fresh))
	cs.checkSettled()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("mix tables rerun over lost recordings diverge from the original run")
	}
	const streams = 6
	if n := fresh.GenPasses(); n != streams {
		t.Errorf("rerun performed %d generation passes, want %d (one per distinct stream)", n, streams)
	}
	if cs.claims != streams || cs.puts != streams {
		t.Errorf("rerun opened %d claims and settled %d by PutRecording, want %d each", cs.claims, cs.puts, streams)
	}
	if n := fresh.FailedCells(); n != 0 {
		t.Errorf("rerun failed %d cells", n)
	}
}

// TestMixCapturePanicsAbortEveryClaim: when every capture panics on a
// cold store, each claim is settled by AbortStream, every solo run and
// unit fails, and the sweep returns a result its tables can render.
func TestMixCapturePanicsAbortEveryClaim(t *testing.T) {
	mx := lostRecordingsMix()
	pool := NewPool(2)
	cs := newClaimStore(t, withStore(t, pool))
	pool.SetStore(cs)
	armFaults(t, faultinject.Config{Seed: 1, Rate: 1, Points: []string{"cell.panic"}})
	r := mx.Run(pool)
	cs.checkSettled()
	// A failed unit's slot holds one zero result per core, so the mix
	// tables render around it.
	for ci, n := range mx.Cores {
		if got := len(r.MixBase[0][ci].Cores); got != n {
			t.Errorf("failed %d-core unit holds %d core results", n, got)
		}
	}
	mixTables(r)
	if cs.claims == 0 || cs.aborts != cs.claims || cs.puts != 0 {
		t.Errorf("%d claims: %d aborted, %d put; want every claim aborted", cs.claims, cs.aborts, cs.puts)
	}
	// Six solo runs and six units (two core counts × three variants).
	if n := pool.FailedCells(); n != 12 {
		t.Errorf("%d failed cells, want 12", n)
	}
}
