// Admin report: the §5.5 experience through the public API. A VC admin
// generates (or, in production, already has) a day of workload history,
// inspects the cluster's overlap profile, drills into the most overlapping
// computations, compares selection strategies under a storage budget, and
// gets the job-coordination hints.
//
//	go run ./examples/adminreport
package main

import (
	"context"
	"fmt"
	"log"

	cv "cloudviews"
)

func main() {
	log.SetFlags(0)

	// One day of a production-like cluster.
	profile := cv.DefaultWorkloadProfile("contoso", 7)
	profile.Templates = 100
	w := cv.GenerateWorkload(profile)
	svc := cv.NewService(w.Catalog, cv.Config{Enabled: false})
	for _, j := range w.JobsForInstance(0) {
		if _, err := svc.Run(context.Background(), cv.JobSpec{Meta: j.Meta, Root: j.Root}); err != nil {
			log.Fatal(err)
		}
	}

	// One Snapshot covers what used to take several accessors: job
	// ledger, storage gauges, breakers, and the analyzer-facing counters.
	snap := svc.Snapshot()
	fmt.Printf("service snapshot (schema v%d): %d jobs completed, %d views resident (%d encoded bytes)\n",
		snap.SchemaVersion, snap.Metrics.Counters["jobs.completed"],
		snap.Storage.Views, snap.Storage.ResidentEncodedBytes)

	// The overlap profile (what the Power BI dashboard summarizes).
	stats := cv.ComputeOverlapStats(svc.Repo.Snapshot())
	fmt.Printf("cluster %q: %d jobs, %d users, %d subgraph occurrences\n",
		profile.Name, stats.TotalJobs, stats.TotalUsers, stats.TotalOccurrences)
	fmt.Printf("  %.0f%% of jobs overlap, %.0f%% of users have overlap, avg frequency %.1f\n\n",
		stats.PctJobsOverlapping, stats.PctUsersOverlapping, stats.AvgFrequency)

	// Drill-down: top overlapping computations with mined statistics.
	an := svc.RunAnalyzer(cv.AnalyzerConfig{MinFrequency: 2, TopK: 5})
	fmt.Println("top overlapping computations:")
	for i, c := range an.Candidates {
		if i >= 5 {
			break
		}
		fmt.Printf("  %d. %-10s freq=%-3d jobs=%-3d users=%-2d cost=%.0f ratio=%.2f utility=%.0f\n",
			i+1, c.RootOp, c.Frequency, c.JobCount, c.UserCount, c.AvgCost, c.CostRatio, c.Utility)
	}

	// Strategy comparison under a storage budget: pure utility vs
	// density-packing (the §5.2 pluggable heuristics).
	var budget int64
	for _, c := range an.Selected {
		budget += int64(c.AvgBytes)
	}
	budget = budget * 2 / 3
	fmt.Printf("\nselection under a %d-byte budget:\n", budget)
	for _, s := range []struct {
		name     string
		strategy cv.AnalyzerConfig
	}{
		{"top-k by net utility", cv.AnalyzerConfig{MinFrequency: 2, TopK: 5}},
		{"utility per byte", cv.AnalyzerConfig{MinFrequency: 2, TopK: 5, Strategy: cv.TopKUtilityPerByte}},
		{"pack under budget", cv.AnalyzerConfig{MinFrequency: 2, Strategy: cv.PackStorageBudget, StorageBudget: budget}},
	} {
		res := svc.RunAnalyzer(s.strategy)
		var bytes int64
		var utility float64
		for _, c := range res.Selected {
			bytes += int64(c.AvgBytes)
			utility += c.Utility
		}
		fmt.Printf("  %-22s -> %d views, %d bytes, total utility %.0f\n",
			s.name, len(res.Selected), bytes, utility)
	}

	// Coordination hints (§6.5): submit these jobs first so each view is
	// built exactly once.
	final := svc.RunAnalyzer(cv.AnalyzerConfig{MinFrequency: 2, TopK: 3})
	fmt.Println("\nsubmit-first hints for tomorrow's instance:")
	for i, id := range final.JobOrder {
		fmt.Printf("  %d. %s\n", i+1, id)
	}
}
