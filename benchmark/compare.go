package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// contract is what the benchmark reads of BENCHMARK.json.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one end-to-end metric's value from every untraced run
// of a workload.
func (f *resultsFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Trace {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// verdict judges one metric on one workload: base runs a against runs b.
//
//	unresolved    the run-to-run spread (the wider interquartile range, as
//	              a share of the base median) exceeds the bound and the two
//	              sets of runs overlap: the runs cannot tell
//	worse         b's median is worse than a's by more than the bound
//	better        every run of b beats every run of a, by more than a's
//	              own spread
//	within-bound  anything else
func verdict(a, b []float64, higherIsBetter bool, bound float64) (string, float64) {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	change := (bm - am) / math.Abs(am) // positive = grew
	worse := change
	if higherIsBetter {
		worse = -change
	}
	spread := math.Max(aq3-aq1, bq3-bq1) / math.Abs(am)
	as, bs := sorted(a), sorted(b)
	overlap := as[0] <= bs[len(bs)-1] && bs[0] <= as[len(as)-1]
	switch {
	case spread > bound && overlap:
		return "unresolved", change
	case worse > bound:
		return "worse", change
	case !overlap && worse < 0 && -worse > (aq3-aq1)/math.Abs(am):
		return "better", change
	}
	return "within-bound", change
}

// compareFiles prints, per workload and end-to-end metric, both medians
// with their quartiles, the ratio with its base, and the verdict.
func compareFiles(w io.Writer, contractPath, pathA, pathB string) error {
	c, err := readContract(contractPath)
	if err != nil {
		return err
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base %s, change %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-16s %-28s %-7s %34s %34s %18s  %s\n", "workload", "metric", "unit",
		"base median [q1, q3] (runs)", "change median [q1, q3] (runs)", "ratio (base)", "verdict")
	for _, wl := range c.Workloads {
		for _, m := range c.EndToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-28s %-7s missing: %d base runs, %d change runs\n", wl.Name, m.Name, m.Unit, len(va), len(vb))
				continue
			}
			aq1, am, aq3 := quartiles(va)
			bq1, bm, bq3 := quartiles(vb)
			v, _ := verdict(va, vb, m.Better == "higher", m.Bound)
			fmt.Fprintf(w, "%-16s %-28s %-7s %34s %34s %18s  %s\n", wl.Name, m.Name, m.Unit,
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", am, aq1, aq3, len(va)),
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", bm, bq1, bq3, len(vb)),
				fmt.Sprintf("%.4f (%.5g)", bm/am, am), v)
		}
	}
	return nil
}
