package sim

import "testing"

func TestAblationSpillFillMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	a := AblationSpillFill(4000, Run)
	if len(a.Rows) != 4 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	// More un-hidden conversion latency can only cost cycles.
	for i := 1; i < len(a.Rows); i++ {
		if a.Rows[i].Cycles < a.Rows[i-1].Cycles {
			t.Fatalf("conversion latency sweep not monotone: %+v", a.Rows)
		}
	}
	// The headline check: one un-hidden cycle costs well under 1%,
	// supporting the paper's decision to pipeline the spill logic.
	if a.Rows[1].Slowdown > 0.01 {
		t.Fatalf("+1 cycle conversion costs %.2f%%, expected negligible", a.Rows[1].Slowdown*100)
	}
}

func TestAblationNonTemporalReducesL1Pressure(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	a := AblationNonTemporalCForm(6000, Run)
	if len(a.Rows) != 2 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	// The NT variant must not be slower: freed lines bypass the L1.
	if a.Rows[1].Cycles > a.Rows[0].Cycles*1.005 {
		t.Fatalf("non-temporal CFORM slower than temporal: %+v", a.Rows)
	}
}

func TestAblationQuarantineRuns(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	a := AblationQuarantine(4000, Run)
	if len(a.Rows) != 3 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	for _, r := range a.Rows {
		if r.Cycles <= 0 {
			t.Fatalf("empty run: %+v", r)
		}
	}
}

func TestAblationMLPOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	a := AblationMLP(4000, Run)
	if len(a.Rows) != 6 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	// Fewer MSHRs can never help; and the streaming kernel
	// (libquantum) must benefit more from MSHRs than the dependent
	// chaser (mcf) in relative terms.
	mcfGain := a.Rows[0].Cycles / a.Rows[2].Cycles
	lqGain := a.Rows[3].Cycles / a.Rows[5].Cycles
	if mcfGain < 1 || lqGain < 1 {
		t.Fatalf("MSHRs must not hurt: mcf %.2f lq %.2f", mcfGain, lqGain)
	}
	if lqGain <= mcfGain {
		t.Fatalf("streaming kernel must gain more from MLP: mcf %.2fx vs libquantum %.2fx", mcfGain, lqGain)
	}
}
