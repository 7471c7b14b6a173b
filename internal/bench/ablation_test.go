package bench

import (
	"sync"
	"testing"
)

// ablations runs every ablation once per test binary: each ablation test
// checks its claim on the shared result, and TestAblationsGolden pins the
// rendered table.
var ablations = sync.OnceValues(RunAblations)

func runAblations(t *testing.T) *Ablations {
	t.Helper()
	a, err := ablations()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAblationsGolden(t *testing.T) {
	checkFigure(t, "ablations", runAblations(t))
}

func TestFeedbackAblation(t *testing.T) {
	r := runAblations(t).Feedback
	// Selection by measured statistics must realize more savings than
	// selection by the naive estimate (the §5.1 argument).
	if r.MeasuredStatsPct <= r.EstimatesPct {
		t.Errorf("feedback loop %.1f%% should beat estimates %.1f%%",
			r.MeasuredStatsPct, r.EstimatesPct)
	}
	if r.MeasuredStatsPct <= 0 {
		t.Errorf("measured-stats selection saved nothing: %.1f%%", r.MeasuredStatsPct)
	}
	t.Logf("feedback=%.1f%% estimates=%.1f%%", r.MeasuredStatsPct, r.EstimatesPct)
}

func TestPhysicalDesignAblation(t *testing.T) {
	r := runAblations(t).Design
	// A single-partition view collapses downstream parallelism; the
	// elected design must yield lower consumer latency (§5.3).
	if r.ElectedLatency >= r.NaiveLatency {
		t.Errorf("elected design latency %.1f should beat naive %.1f",
			r.ElectedLatency, r.NaiveLatency)
	}
	t.Logf("elected=%.1f naive=%.1f", r.ElectedLatency, r.NaiveLatency)
}

func TestCoordinationAblation(t *testing.T) {
	r := runAblations(t).Coordination
	// Coordinated submission realizes strictly more reuse than fully
	// concurrent uncoordinated arrival (§6.5).
	if r.CoordinatedPct <= r.UncoordinatedPct {
		t.Errorf("coordinated %.1f%% should beat uncoordinated %.1f%%",
			r.CoordinatedPct, r.UncoordinatedPct)
	}
	t.Logf("coordinated=%.1f%% uncoordinated=%.1f%%", r.CoordinatedPct, r.UncoordinatedPct)
}

func TestEarlyMatAblation(t *testing.T) {
	r := runAblations(t).EarlyMat
	// After a builder crash, early materialization lets the next job
	// read the checkpointed view; late publication forces a recompute.
	if r.EarlyCPU >= r.LateCPU {
		t.Errorf("early-mat recovery CPU %.1f should beat late %.1f", r.EarlyCPU, r.LateCPU)
	}
	t.Logf("early=%.1f late=%.1f", r.EarlyCPU, r.LateCPU)
}

func TestViewLimitAblation(t *testing.T) {
	r := runAblations(t).ViewLimit
	for _, limit := range []int{1, 2, 4} {
		if _, ok := r.ImprovementPct[limit]; !ok {
			t.Fatalf("missing limit %d", limit)
		}
	}
	// Allowing more views per job must not hurt overall improvement
	// dramatically; typically it helps (more of the selected views get
	// built in the first pass).
	if r.ImprovementPct[4] < r.ImprovementPct[1]-5 {
		t.Errorf("limit-4 improvement %.1f%% collapsed vs limit-1 %.1f%%",
			r.ImprovementPct[4], r.ImprovementPct[1])
	}
	t.Logf("limits: 1=%.1f%% 2=%.1f%% 4=%.1f%%",
		r.ImprovementPct[1], r.ImprovementPct[2], r.ImprovementPct[4])
}
