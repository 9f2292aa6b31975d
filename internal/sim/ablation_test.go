package sim

import "testing"

// runAblation runs every point of a sweep independently and folds its
// rows.
func runAblation(a Ablation) []AblationRow {
	results := make([]Result, len(a.Points))
	for i, p := range a.Points {
		results[i] = Run(p.Spec, p.RC)
	}
	return a.Rows(results)
}

func TestAblationSpillFillMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	rows := runAblation(ablationSpillFill(4000))
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More un-hidden conversion latency can only cost cycles.
	for i := 1; i < len(rows); i++ {
		if rows[i].Cycles < rows[i-1].Cycles {
			t.Fatalf("conversion latency sweep not monotone: %+v", rows)
		}
	}
	// The headline check: one un-hidden cycle costs well under 1%,
	// supporting the paper's decision to pipeline the spill logic.
	if rows[1].Slowdown > 0.01 {
		t.Fatalf("+1 cycle conversion costs %.2f%%, expected negligible", rows[1].Slowdown*100)
	}
}

func TestAblationNonTemporalReducesL1Pressure(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	rows := runAblation(ablationNonTemporalCForm(6000))
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The NT variant must not be slower: freed lines bypass the L1.
	if rows[1].Cycles > rows[0].Cycles*1.005 {
		t.Fatalf("non-temporal CFORM slower than temporal: %+v", rows)
	}
}

func TestAblationQuarantineRuns(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	rows := runAblation(ablationQuarantine(4000))
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Cycles <= 0 {
			t.Fatalf("empty run: %+v", r)
		}
	}
}

func TestAblationMLPOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	rows := runAblation(ablationMLP(4000))
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Fewer MSHRs can never help; and the streaming kernel
	// (libquantum) must benefit more from MSHRs than the dependent
	// chaser (mcf) in relative terms.
	mcfGain := rows[0].Cycles / rows[2].Cycles
	lqGain := rows[3].Cycles / rows[5].Cycles
	if mcfGain < 1 || lqGain < 1 {
		t.Fatalf("MSHRs must not hurt: mcf %.2f lq %.2f", mcfGain, lqGain)
	}
	if lqGain <= mcfGain {
		t.Fatalf("streaming kernel must gain more from MLP: mcf %.2fx vs libquantum %.2fx", mcfGain, lqGain)
	}
}
