package main

import (
	"fmt"
	"math"
	"runtime"
)

// kind selects how a workload's rounds are produced.
type kind int

const (
	// kindRecurring: one long-lived reuse-on service; round 0 is history
	// and the first analysis; every later round delivers an instance,
	// replays its jobs and re-mines that instance's window.
	kindRecurring kind = iota
	// kindMine: like kindRecurring, but the history is a large synthetic
	// observation log, mined on its own before the serving rounds; every
	// re-mine while serving scans that log too.
	kindMine
	// kindTPCDS: the 99 queries; every round is one pass on a fresh
	// service with the history's analysis loaded.
	kindTPCDS
)

// workloadDef is one named workload. Sizes are for --seconds 10 on the
// 2-core reference box and scale linearly with --seconds; see README.md
// for why each size was chosen.
type workloadDef struct {
	name string
	kind kind

	templates, rowsPerInput int
	cacheBytes              int64 // Config.CacheBytes: 0 default (64 MiB), negative off
	batch                   bool  // several clients per round
	scale                   float64
	syntheticObs            int
	mine                    mineConfig

	rounds   int // timed rounds
	mineRuns int // analysis samples: of the synthetic log (kindMine), the history (kindTPCDS), the final repository (kindRecurring)
}

var recurringMine = mineConfig{minFrequency: 2, minCostRatio: 0.1, maxPerJob: 1, topK: 50}

var workloadDefs = []workloadDef{
	{name: "recurring_small", kind: kindRecurring, templates: 400, rowsPerInput: 64, mine: recurringMine, rounds: 36, mineRuns: 11},
	{name: "recurring_large", kind: kindRecurring, templates: 120, rowsPerInput: 8000, mine: recurringMine, rounds: 12, mineRuns: 11},
	{name: "recurring_cold", kind: kindRecurring, templates: 120, rowsPerInput: 8000, cacheBytes: -1, mine: recurringMine, rounds: 12, mineRuns: 11},
	{name: "recurring_batch", kind: kindRecurring, templates: 400, rowsPerInput: 64, batch: true, mine: recurringMine, rounds: 36, mineRuns: 11},
	{name: "tpcds", kind: kindTPCDS, scale: 4.0, mine: mineConfig{minFrequency: 3, minCostRatio: 0.05, topK: 10}, rounds: 14, mineRuns: 21},
	{name: "analyzer_mine", kind: kindMine, templates: 400, rowsPerInput: 64, syntheticObs: 200000, mine: recurringMine, rounds: 20, mineRuns: 30},
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.name
	}
	return names
}

func findWorkload(name string) (workloadDef, error) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// sized returns the definition at the run's size. A traced run plays every
// round, the history included, on four lanes, so it takes a fifth of the
// rounds.
func (d workloadDef) sized(o runOptions) workloadDef {
	if o.smoke {
		d.rounds = 2
		if d.templates > 0 {
			d.templates = 20
			d.rowsPerInput = min(d.rowsPerInput, 400)
		}
		if d.scale > 0 {
			d.scale = 0.25
		}
		if d.syntheticObs > 0 {
			d.syntheticObs = 5000
		}
		if d.mineRuns > 0 {
			d.mineRuns = 3
		}
		return d
	}
	f := o.seconds / 10
	if o.trace {
		f /= 5
	}
	scale := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		return max(floor, int(math.Round(float64(n)*f)))
	}
	d.rounds = scale(d.rounds, 2)
	d.mineRuns = scale(d.mineRuns, 3)
	return d
}

// clients is the closed loop's client count: one, except for the batch
// workload's min(nproc, 4).
func (d workloadDef) clients() int {
	if !d.batch {
		return 1
	}
	return min(runtime.NumCPU(), 4)
}
