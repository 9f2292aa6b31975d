package harness

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

func testManifest() SweepManifest {
	return SweepManifest{Experiments: []string{"fig4"}, Visits: 200, Seeds: 2, Format: "json"}
}

func TestSweepJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	sj, err := NewSweep(path, testManifest(), nil)
	if err != nil {
		t.Fatalf("NewSweep: %v", err)
	}
	want := sim.Result{Benchmark: "mcf", Cycles: 42, Instructions: 7}
	sj.PutRun("cell-a", want)
	sj.PutMix("mix-a", map[string]int{"x": 1})
	if got, ok := sj.GetRun("cell-a"); !ok || got != want {
		t.Fatalf("overlay GetRun = %+v, %v", got, ok)
	}
	if n := sj.Cells(); n != 2 {
		t.Fatalf("Cells = %d, want 2 (run + mix)", n)
	}
	sj.Close()

	r, err := ResumeSweep(path, testManifest(), nil)
	if err != nil {
		t.Fatalf("ResumeSweep: %v", err)
	}
	defer r.Close()
	if got, ok := r.GetRun("cell-a"); !ok || got != want {
		t.Fatalf("resumed GetRun = %+v, %v", got, ok)
	}
	var mix map[string]int
	if !r.GetMix("mix-a", &mix) || mix["x"] != 1 {
		t.Fatalf("resumed GetMix = %v", mix)
	}
	if n := r.Cells(); n != 2 {
		t.Fatalf("resumed Cells = %d, want 2", n)
	}
	if _, ok := r.GetRun("absent"); ok {
		t.Fatal("resumed journal served an absent key")
	}
}

func TestResumeRefusesMismatchedManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	sj, err := NewSweep(path, testManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sj.Close()

	cases := map[string]func(*SweepManifest){
		"experiments": func(m *SweepManifest) { m.Experiments = []string{"fig3"} },
		"visits":      func(m *SweepManifest) { m.Visits = 999 },
		"seeds":       func(m *SweepManifest) { m.Seeds = 1 },
		"machine":     func(m *SweepManifest) { m.Machine = "skylake" },
		"format":      func(m *SweepManifest) { m.Format = "csv" },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			man := testManifest()
			mutate(&man)
			if _, err := ResumeSweep(path, man, nil); err == nil {
				t.Fatal("resume accepted a mismatched manifest")
			} else if !strings.Contains(err.Error(), "different invocation") {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
	// The unchanged manifest still resumes.
	r, err := ResumeSweep(path, testManifest(), nil)
	if err != nil {
		t.Fatalf("matching manifest refused: %v", err)
	}
	r.Close()
}

func TestResumeRefusesJournalWithoutManifest(t *testing.T) {
	// A raw store journal with no manifest record is not resumable.
	path := filepath.Join(t.TempDir(), "sweep.journal")
	sj, err := NewSweep(path, testManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sj.Close()
	// Truncate to just the magic: zero records.
	j2, err := ResumeSweep(filepath.Join(t.TempDir(), "missing"), testManifest(), nil)
	if err == nil {
		j2.Close()
		t.Fatal("resume of a missing journal succeeded")
	}
}

func TestJournaledSweepResumesWithZeroGenPasses(t *testing.T) {
	// The checkpoint referee at the engine level: run a matrix through
	// a journal, then resume into a fresh journal-backed run — it must
	// pay zero generation passes and produce identical results.
	m := Matrix{
		Benches: workload.Fig10Set()[:2],
		Configs: []sim.RunConfig{{Policy: sim.PolicyFull, MinPad: 1, MaxPad: 7, UseCForm: true}},
		Seeds:   2,
		Visits:  200,
	}
	path := filepath.Join(t.TempDir(), "sweep.journal")
	man := testManifest()

	sj, err := NewSweep(path, man, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(2)
	pool.SetStore(sj)
	want := m.Run(pool)
	sj.Close()

	r, err := ResumeSweep(path, man, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool = NewPool(4)
	pool.SetStore(r)
	before := sim.GenerationPasses()
	got := m.Run(pool)
	if n := sim.GenerationPasses() - before; n != 0 {
		t.Errorf("resumed sweep performed %d generation passes, want 0", n)
	}
	if !reflect.DeepEqual(want.Base, got.Base) || !reflect.DeepEqual(want.Runs, got.Runs) {
		t.Fatal("resumed sweep results diverge from the journaled run")
	}
	r.Close()
}

func TestSweepJournalForwardsToBacking(t *testing.T) {
	// With a backing store attached, journaled artifacts land in both;
	// a fresh journal over a warm backing store serves from the backing
	// tier.
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sj, err := NewSweep(filepath.Join(dir, "a.journal"), testManifest(), st)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Result{Benchmark: "x", Cycles: 1}
	sj.PutRun("k", want)
	sj.Close()
	if got, ok := st.GetRun("k"); !ok || got != want {
		t.Fatalf("backing store GetRun = %+v, %v", got, ok)
	}

	fresh, err := NewSweep(filepath.Join(dir, "b.journal"), testManifest(), st)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if got, ok := fresh.GetRun("k"); !ok || got != want {
		t.Fatalf("journal over warm backing GetRun = %+v, %v", got, ok)
	}
}

func TestOnCellObserverCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	sj, err := NewSweep(path, testManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sj.Close()
	var seen []uint64
	sj.OnCell(func(n uint64) { seen = append(seen, n) })
	sj.PutRun("a", sim.Result{})
	sj.PutRun("a", sim.Result{})     // dup: no recount
	sj.PutMix("m", map[string]int{}) // counts
	if !reflect.DeepEqual(seen, []uint64{1, 2}) {
		t.Fatalf("OnCell observed %v, want [1 2]", seen)
	}
}
