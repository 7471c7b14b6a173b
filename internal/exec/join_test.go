package exec

import (
	"context"
	"runtime"
	"testing"

	"cloudviews/internal/data"
	"cloudviews/internal/plan"
)

// maxSmallJoinAlloc bounds the bytes one probe of 8 partitions × 8 rows
// with 1:1 matches may allocate: the 64 output rows (6 Values each), their
// row headers and the build table, 22.5 KB measured, plus 30 %. A probe
// that reserves whole 128-row slabs per partition spends 30 KB per
// partition on zeroed Values no row uses (262 KB in all).
const maxSmallJoinAlloc = 23_040 * 13 / 10

// TestJoinAllocSmallPartitions pins that the join sizes each partition's
// emit arena from the rows it holds — the shape of a recurring job's
// 64-row inputs split across partitions.
func TestJoinAllocSmallPartitions(t *testing.T) {
	const parts, perPart = 8, 8
	left := make(partitions, parts)
	right := make(partitions, parts)
	for p := 0; p < parts; p++ {
		for i := 0; i < perPart; i++ {
			k := int64(p*perPart + i)
			left[p] = append(left[p], data.Row{data.Int(k), data.Int(k % 5), data.Int(1), data.Float(2.5)})
			right[p] = append(right[p], data.Row{data.Int(k), data.String_("brand")})
		}
	}
	n := plan.Scan("fact", "fact-v1", salesSchema()).
		HashJoin(plan.Scan("dim", "dim-v1", itemSchema()), []int{0}, []int{0})
	stats := &Stats{Rows: parts * perPart}
	join := func() {
		out, _, _, err := applyJoin(context.Background(), n, left, right, stats, stats)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.rows(); got != parts*perPart {
			t.Fatalf("join emitted %d rows, want %d", got, parts*perPart)
		}
	}
	join() // warm

	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		join()
	}
	runtime.ReadMemStats(&after)
	perJoin := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("join of %d × %d rows allocates %.1f KB", parts, perPart, float64(perJoin)/1024)
	if perJoin > maxSmallJoinAlloc {
		t.Errorf("join allocates %.1f KB, want ≤ %.1f KB", float64(perJoin)/1024, float64(maxSmallJoinAlloc)/1024)
	}
}
