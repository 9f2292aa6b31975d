package harness

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/multicore"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func testMix(benchNames []string, cores []int, seeds, visits int) Mix {
	tuples := make([]MixTuple, 1)
	tuples[0] = mixTuple(benchNames...)
	return Mix{
		Tuples: tuples,
		Config: mixProtConfig(),
		Cores:  cores,
		Seeds:  seeds,
		Visits: visits,
	}
}

// TestMixSingleCoreMatchesSingleCoreEngine is the N=1 acceptance
// referee: a one-core mix of any registry benchmark must reproduce the
// single-core engine's results exactly — the solo capture runs equal
// independent sim.Run cells, and the one-core machine replay equals
// them too, at every seed.
func TestMixSingleCoreMatchesSingleCoreEngine(t *testing.T) {
	const seeds, visits = 2, 400
	for _, bench := range []string{"gobmk", "perlbench"} {
		mx := testMix([]string{bench}, []int{1}, seeds, visits)
		r := mx.Run(NewPool(4))
		spec, _ := workload.ByName(bench)

		wantBase := sim.Run(spec, mx.variantConfig(0))
		if r.SoloBase[0] != wantBase {
			t.Errorf("%s: solo baseline diverges from sim.Run\ngot:  %+v\nwant: %+v", bench, r.SoloBase[0], wantBase)
		}
		if got := r.MixBase[0][0].Cores[0]; got != wantBase {
			t.Errorf("%s: one-core baseline mix diverges from sim.Run\ngot:  %+v\nwant: %+v", bench, got, wantBase)
		}
		for s := 0; s < seeds; s++ {
			wantProt := sim.Run(spec, mx.variantConfig(s+1))
			if r.SoloProt[0][s] != wantProt {
				t.Errorf("%s seed %d: solo protected diverges from sim.Run", bench, s)
			}
			if got := r.MixProt[0][0][s].Cores[0]; got != wantProt {
				t.Errorf("%s seed %d: one-core protected mix diverges from sim.Run\ngot:  %+v\nwant: %+v", bench, s, got, wantProt)
			}
		}
	}
}

// TestMixZeroVisitsMatchesRun: a Mix that leaves Visits zero simulates
// sim.Run's default region — the one its store keys name — so its solo
// result equals sim.Run of the same configuration.
func TestMixZeroVisitsMatchesRun(t *testing.T) {
	mx := Mix{Tuples: []MixTuple{mixTuple("sjeng")}, Config: mixProtConfig(), Cores: []int{1}}
	r := mx.Run(NewPool(2))
	spec, _ := workload.ByName("sjeng")
	if want := sim.Run(spec, mx.variantConfig(0)); r.SoloBase[0] != want {
		t.Errorf("zero-visit solo baseline diverges from sim.Run\ngot:  %+v\nwant: %+v", r.SoloBase[0], want)
	}
}

// TestMixSingleCoreEmitterBytes: rendering the same per-benchmark
// slowdown table from the single-core Matrix engine and from a
// one-core Mix produces byte-identical emitter output in every format
// at every worker count — the emitter-level form of the N=1 contract.
func TestMixSingleCoreEmitterBytes(t *testing.T) {
	const visits = 400
	benches := []string{"gobmk", "sjeng"}
	render := func(slowdown func(b int) float64) []Result {
		tab := Result{Experiment: "n1", Kind: KindTable, Title: "N=1 referee",
			Headers: []string{"benchmark", "slowdown"}}
		for b, name := range benches {
			tab.Rows = append(tab.Rows, []string{name, stats.Pct(slowdown(b))})
		}
		return []Result{tab}
	}

	emitted := func(results []Result, format string) []byte {
		em, err := NewEmitter(format)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := em.Emit(&buf, results); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	for _, workers := range []int{1, 4} {
		pool := NewPool(workers)
		specs := make([]workload.Spec, len(benches))
		for i, n := range benches {
			specs[i], _ = workload.ByName(n)
		}
		m := Matrix{Benches: specs, Configs: []sim.RunConfig{mixProtConfig()}, Visits: visits}
		mr := m.Run(pool)
		single := render(func(b int) float64 { return mr.Slowdown(b, 0) })

		tuples := make([]MixTuple, len(benches))
		for i, n := range benches {
			tuples[i] = mixTuple(n)
		}
		mx := Mix{Tuples: tuples, Config: mixProtConfig(), Cores: []int{1}, Visits: visits}
		xr := mx.Run(pool)
		multi := render(func(b int) float64 { return xr.MixAvgSlowdown(b, 0) })

		for _, format := range []string{"text", "json", "csv"} {
			a, b := emitted(single, format), emitted(multi, format)
			if !bytes.Equal(a, b) {
				t.Errorf("workers=%d format=%s: N=1 mix emitter bytes diverge from the single-core engine\nsingle:\n%s\nmix:\n%s",
					workers, format, a, b)
			}
		}
	}
}

// TestMixDeterministicAcrossWorkerCounts: the mix2 registry experiment
// emits byte-identical output at every pool width and format — the
// acceptance property the CI determinism job spot-checks.
func TestMixDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode (the CI determinism job diffs mix2 end to end)")
	}
	p := Params{Visits: 200, Seeds: 2}
	// One sweep per worker count; all three formats are emitted from
	// the same result set (emitters are pure functions of it).
	emit := func(workers int) map[string][]byte {
		rs, err := RunByName("mix2", p, NewPool(workers))
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte)
		for _, format := range []string{"text", "json", "csv"} {
			em, _ := NewEmitter(format)
			var buf bytes.Buffer
			if err := em.Emit(&buf, rs); err != nil {
				t.Fatal(err)
			}
			out[format] = buf.Bytes()
		}
		return out
	}
	one := emit(1)
	for _, workers := range []int{4, 16} {
		got := emit(workers)
		for format, want := range one {
			if !bytes.Equal(want, got[format]) {
				t.Fatalf("mix2 %s output differs between 1 and %d workers", format, workers)
			}
		}
	}
}

// TestMixExpansionShape: tuple tiling, unique-benchmark dedup across
// tuples, and the result geometry.
func TestMixExpansionShape(t *testing.T) {
	mx := Mix{
		Tuples: []MixTuple{mixTuple("gobmk", "sjeng"), mixTuple("sjeng")},
		Config: mixProtConfig(),
		Cores:  []int{1, 2, 4},
		Seeds:  2,
		Visits: 100,
	}
	if got := mx.Tuples[1].bench(3).Name; got != "sjeng" {
		t.Fatalf("tiling slot 3 of a 1-tuple gave %q", got)
	}
	if got := mx.Tuples[0].bench(3).Name; got != "sjeng" {
		t.Fatalf("tiling slot 3 of a 2-tuple gave %q", got)
	}
	r := mx.Run(NewPool(2))
	if len(r.Benches) != 2 {
		t.Fatalf("unique benches = %d, want 2 (dedup across tuples)", len(r.Benches))
	}
	if len(r.SoloProt[0]) != 2 || len(r.MixProt[0]) != 3 || len(r.MixProt[0][2]) != 2 {
		t.Fatal("result geometry does not match tuples × cores × seeds")
	}
	for ci, n := range mx.Cores {
		for ti := range mx.Tuples {
			if got := len(r.MixProt[ti][ci][0].Cores); got != n {
				t.Fatalf("tuple %d cores[%d]: machine width %d, want %d", ti, ci, got, n)
			}
		}
	}
	// Same benchmark everywhere: a rate-mode tuple's per-core results
	// carry the benchmark's name on every slot.
	for slot, cr := range r.MixProt[1][2][0].Cores {
		if cr.Benchmark != "sjeng" {
			t.Fatalf("rate tuple slot %d ran %q", slot, cr.Benchmark)
		}
	}
}

// TestMixL3RefereeThroughHarness: the shared-L3 per-core accounting
// sums to the aggregate for every machine a mix experiment builds.
func TestMixL3RefereeThroughHarness(t *testing.T) {
	mx := testMix([]string{"perlbench", "libquantum"}, []int{2, 4}, 1, 300)
	r := mx.Run(NewPool(2))
	for ci, n := range mx.Cores {
		for _, mr := range []struct {
			label string
			run   multicore.RunResult
		}{
			{fmt.Sprintf("base x%d", n), r.MixBase[0][ci]},
			{fmt.Sprintf("prot x%d", n), r.MixProt[0][ci][0]},
		} {
			var hits, misses, wbs uint64
			for _, cs := range mr.run.L3PerCore {
				hits += cs.Hits
				misses += cs.Misses
				wbs += cs.Writebacks
			}
			if hits != mr.run.L3.Hits || misses != mr.run.L3.Misses || wbs != mr.run.L3.Writebacks {
				t.Errorf("%s: per-core L3 sum diverges from aggregate", mr.label)
			}
			if hits+misses == 0 {
				t.Errorf("%s: no shared-L3 traffic recorded", mr.label)
			}
		}
	}
}

// TestMixUnitKeyPinned pins one stage-two store key byte for byte: the
// per-slot stream keys, the resolved machine and the interleaver
// quantum. A change here strands every stored mix unit.
func TestMixUnitKeyPinned(t *testing.T) {
	mx := testMix([]string{"mcf", "perlbench"}, []int{2}, 1, 300)
	const want = `{"streams":["{\"bench\":\"mcf\",\"bench_seed\":110,\"policy\":2,\"min_pad\":1,\"max_pad\":7,\"use_cform\":true,\"visits\":300}","{\"bench\":\"perlbench\",\"bench_seed\":114,\"policy\":2,\"min_pad\":1,\"max_pad\":7,\"use_cform\":true,\"visits\":300}"],` +
		`"machine":{"Name":"westmere","Title":"Table 3 Westmere-like desktop at 2.27GHz (the paper's evaluation machine)","CoreModel":"x86-64 Westmere-like OoO model",` +
		`"Hier":{"L1":{"Name":"L1D","Size":32768,"Ways":8,"Latency":4},"L2":{"Name":"L2","Size":262144,"Ways":8,"Latency":7},"L3":{"Name":"L3","Size":2097152,"Ways":16,"Latency":27},"MemLatency":200,"ExtraL2L3":0,"SpillFillLatency":0},` +
		`"Core":{"IssueWidth":4,"MSHRs":10,"ROBWindow":48,"LSQDepth":36,"StoreMissCost":[0,0,0.5,1.5,4],"ExceptionCost":700,"HaltOnException":false},"Cores":4},"quantum":1024}`
	if got := mx.unitKey(mx.Tuples[0], 2, 1); got != want {
		t.Fatalf("mix unit key changed:\ngot:  %s\nwant: %s", got, want)
	}
}
