package analyzer

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// renderedConfigs are the configs TestAnalyzeRendered pins: the
// benchmark's recurring mine, a density selection, a storage packing, and
// a scoped window.
var renderedConfigs = []Config{
	recurringCfg,
	{Strategy: TopKUtilityPerByte, TopK: 10, MinFrequency: 3},
	{Strategy: PackStorageBudget, StorageBudget: 1 << 22, MaxPerJob: 1},
	{WindowFrom: 1, WindowTo: 3, BusinessUnits: []string{"bu0", "bu3"}, MaxPerJob: 1, TopK: 10},
}

// TestAnalyzeRendered pins Analyze's rendered output — every candidate
// with the bits of every statistic and its jobs by ID, the selection and
// the job order — on the low-overlap golden repository to
// testdata/analyze_rendered.txt (-update rewrites it). TestAnalyzerGolden
// diffs Analyze against Serial; this file pins both against a fixed text,
// so a change to the two at once still shows.
func TestAnalyzeRendered(t *testing.T) {
	a := New(goldenRepo(t, goldenProfiles()[1], 6000))
	var buf bytes.Buffer
	for i, cfg := range renderedConfigs {
		fmt.Fprintf(&buf, "config %d %+v\n", i, cfg)
		renderAnalysis(&buf, a.Analyze(cfg))
	}
	path := filepath.Join("testdata", "analyze_rendered.txt")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to record): %v", err)
	}
	got := strings.Split(buf.String(), "\n")
	for i, w := range strings.Split(string(want), "\n") {
		if i >= len(got) || got[i] != w {
			t.Fatalf("%s line %d:\n got: %.300s\nwant: %.300s", path, i+1, at(got, i), w)
		}
	}
	if len(got) != len(strings.Split(string(want), "\n")) {
		t.Fatalf("%s: got %d lines, want fewer", path, len(got))
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of output>"
}

// renderAnalysis writes an one line per candidate, then the selected
// signatures and the job order.
func renderAnalysis(buf *bytes.Buffer, an *Analysis) {
	bits := math.Float64bits
	fmt.Fprintf(buf, "window %d..%d jobs=%d subgraphs=%d candidates=%d\n",
		an.WindowFrom, an.WindowTo, an.TotalJobs, an.TotalSubgraphs, len(an.Candidates))
	for _, c := range an.Candidates {
		fmt.Fprintf(buf, "cand %s freq=%d jobs=%d users=%d root=%v cost=%x latency=%x rows=%x bytes=%x ratio=%x read=%x utility=%x runtime=%x props=%v multi=%t expiry=%d jobids=%s tags=%s inputs=%s\n",
			c.NormSig, c.Frequency, c.JobCount, c.UserCount, c.RootOp,
			bits(c.AvgCost), bits(c.AvgLatency), bits(c.AvgRows), bits(c.AvgBytes),
			bits(c.CostRatio), bits(c.ReadCost), bits(c.Utility), bits(c.AvgRuntime),
			c.Props, c.MultiDesign, c.ExpiryDelta,
			strings.Join(candidateJobs(an, c), ","), strings.Join(c.Tags, ","), strings.Join(c.Inputs, ","))
	}
	for _, c := range an.Selected {
		fmt.Fprintf(buf, "selected %s\n", c.NormSig)
	}
	fmt.Fprintf(buf, "order %s\n", strings.Join(an.JobOrder, ","))
}

// candidateJobs returns c's jobs by ID, in c's order.
func candidateJobs(an *Analysis, c Candidate) []string {
	ids := make([]string, len(c.Jobs))
	for k, j := range c.Jobs {
		ids[k] = an.JobIDs[j]
	}
	return ids
}
