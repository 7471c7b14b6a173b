package workload

import (
	"fmt"
	"slices"
	"testing"

	"cloudviews/internal/plan"
)

// TestDesignKeyReference pins the append-based designKey to the fmt format
// it replaced — election tie-breaks compare these strings.
func TestDesignKeyReference(t *testing.T) {
	cases := []plan.PhysicalProps{
		{},
		{Part: plan.Partitioning{Kind: plan.PartHash, Cols: []int{0, 3}, Count: 16}},
		{Part: plan.Partitioning{Kind: plan.PartRange, Cols: []int{2}, Count: 8},
			Sort: plan.SortOrder{Cols: []int{2, 1}, Desc: []bool{true, false}}},
		{Sort: plan.SortOrder{Cols: []int{0}, Desc: []bool{false}}},
	}
	for _, p := range cases {
		want := fmt.Sprintf("%v|%v|%d|%v|%v", p.Part.Kind, p.Part.Cols, p.Part.Count, p.Sort.Cols, p.Sort.Desc)
		if got := designKey(p); got != want {
			t.Errorf("designKey(%+v) = %q, want %q", p, got, want)
		}
	}
}

// TestDesignTallyGroupsByKey pins the tally's field-by-field comparison to
// grouping by key: designs that render one key (nil and empty column
// lists) share a count, the first occurrence's props represent them, and
// a count tie elects the smaller key.
func TestDesignTallyGroupsByKey(t *testing.T) {
	hashNil := plan.PhysicalProps{Part: plan.Partitioning{Kind: plan.PartHash, Count: 4}}
	hashEmpty := plan.PhysicalProps{Part: plan.Partitioning{Kind: plan.PartHash, Cols: []int{}, Count: 4}}
	range2 := plan.PhysicalProps{Part: plan.Partitioning{Kind: plan.PartRange, Cols: []int{2}, Count: 8}}

	var tally DesignTally
	tally.Add(range2)
	tally.Add(hashNil)
	tally.Add(hashEmpty)
	if len(tally) != 2 {
		t.Fatalf("tally has %d designs, want 2 (nil and empty Cols render one key)", len(tally))
	}
	props, multi := tally.Elect()
	if !multi || props.Part.Kind != plan.PartHash || props.Part.Cols != nil {
		t.Errorf("Elect = %+v, %v; want the first hash occurrence, multi", props, multi)
	}

	tally.Add(range2)
	if designKey(hashNil) >= designKey(range2) {
		t.Fatal("test assumes the hash key sorts first")
	}
	if props, _ := tally.Elect(); props.Part.Kind != plan.PartHash {
		t.Errorf("count tie elected %v, want the smaller key (hash)", props.Part.Kind)
	}
}

// TestSigFoldJobs pins the job list's dedup: distinct jobs in
// first-occurrence order with per-job occurrence counts, including a job
// recorded again after others; and a signature seen once is only parked.
func TestSigFoldJobs(t *testing.T) {
	jobs := []int32{0, 0, 1, 2, 0, 3, 1, 1}
	obs := make([]Observation, len(jobs))
	for i := range obs {
		obs[i].NormSig = "s"
		obs[i].CumulativeCost = 1
	}
	var fs SigFolds
	for i, j := range jobs {
		fs.Add(obs, i, j)
		if i == 0 && len(fs.Overlaps) != 0 {
			t.Fatalf("a signature seen once has a fold: %+v", fs.Overlaps)
		}
	}
	f := fs.Overlaps["s"]
	if want := []JobCount{{0, 3}, {1, 3}, {2, 1}, {3, 1}}; !slices.Equal(f.Jobs, want) {
		t.Errorf("Jobs = %v, want %v", f.Jobs, want)
	}
	if f.Freq != len(jobs) || f.Cost != float64(len(jobs)) {
		t.Errorf("Freq = %d, Cost = %v, want %d of each", f.Freq, f.Cost, len(jobs))
	}
}
