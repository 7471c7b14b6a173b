package core

import (
	"context"
	"testing"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/workgen"
)

// TestMultiInstanceSoak drives a generated cluster through several
// recurring instances end to end: instance 0 builds history, the analyzer
// installs annotations, and every later instance delivers fresh data,
// purges expired views, and runs all jobs with result validation on. This
// is the lifecycle the paper's production deployment lives in.
func TestMultiInstanceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	p := workgen.DefaultProfile("soak", 77)
	p.Templates = 60
	p.Users = 15
	p.RowsPerInput = 200
	w := workgen.Generate(p)

	svc := NewService(w.Catalog, Config{Enabled: true, ValidateResults: true, MaxViewsPerJob: 1})

	const instances = 5
	var reusedTotal, builtTotal int
	storeSizes := make([]int, 0, instances)
	for inst := int64(0); inst < instances; inst++ {
		if inst > 0 {
			w.DeliverInstance(inst)
		}
		svc.BeginInstance(inst)
		for _, j := range w.JobsForInstance(inst) {
			r, err := svc.Run(context.Background(), JobSpec{Meta: j.Meta, Root: j.Root})
			if err != nil {
				t.Fatalf("instance %d job %s: %v", inst, j.Meta.JobID, err)
			}
			reusedTotal += len(r.Decision.ViewsUsed)
			builtTotal += len(r.Decision.ViewsBuilt)
		}
		if inst == 0 {
			an := svc.RunAnalyzer(analyzer.Config{MinFrequency: 2, MinCostRatio: 0.2, TopK: 5})
			if len(an.Selected) == 0 {
				t.Fatal("analyzer selected nothing from instance 0")
			}
		}
		storeSizes = append(storeSizes, svc.Store.Len())
	}

	// Reuse must actually happen after the analysis lands.
	if builtTotal == 0 {
		t.Error("no views built across the soak")
	}
	if reusedTotal == 0 {
		t.Error("no views reused across the soak")
	}
	if reusedTotal < builtTotal {
		t.Errorf("reuse (%d) should exceed builds (%d) — each view serves several jobs",
			reusedTotal, builtTotal)
	}
	// Expiry keeps the store bounded: the view count must not grow
	// monotonically across instances once expiry kicks in.
	last := storeSizes[len(storeSizes)-1]
	peak := 0
	for _, s := range storeSizes {
		if s > peak {
			peak = s
		}
	}
	if last > peak {
		t.Errorf("store still growing at the end: sizes %v", storeSizes)
	}
	if peak == 0 {
		t.Error("store never held a view")
	}
	// The analysis stayed fresh (templates did not change).
	if svc.Snapshot().AnalysisStale {
		t.Error("analysis flagged stale on an unchanged workload")
	}
	t.Logf("soak: built=%d reused=%d store sizes per instance=%v", builtTotal, reusedTotal, storeSizes)
}

// TestSoakWithWeeklyTemplates verifies longer-period templates interleave
// correctly: weekly jobs appear only at instance 0 and 7, and views over
// inputs consumed weekly outlive the week (the §5.4 lineage rule).
func TestSoakWithWeeklyTemplates(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	p := workgen.DefaultProfile("weekly", 13)
	p.Templates = 50
	p.RowsPerInput = 150
	w := workgen.Generate(p)

	hasWeekly := false
	for _, tpl := range w.Templates {
		if tpl.Period == 7 {
			hasWeekly = true
		}
	}
	if !hasWeekly {
		t.Skip("seed produced no weekly templates")
	}

	svc := NewService(w.Catalog, Config{Enabled: true, MaxViewsPerJob: 1})
	for inst := int64(0); inst < 8; inst++ {
		if inst > 0 {
			w.DeliverInstance(inst)
		}
		svc.BeginInstance(inst)
		jobs := w.JobsForInstance(inst)
		weeklySeen := false
		for _, j := range jobs {
			if j.Meta.Period == 7 {
				weeklySeen = true
			}
			if _, err := svc.Run(context.Background(), JobSpec{Meta: j.Meta, Root: j.Root}); err != nil {
				t.Fatalf("instance %d: %v", inst, err)
			}
		}
		if inst == 0 {
			svc.RunAnalyzer(analyzer.Config{MinFrequency: 2, TopK: 5})
		}
		if weeklySeen && inst%7 != 0 {
			t.Errorf("weekly job ran at instance %d", inst)
		}
		if inst%7 == 0 && !weeklySeen {
			t.Errorf("no weekly job at instance %d", inst)
		}
	}
}
