package exec

import (
	"context"
	"fmt"
	"testing"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/expr"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
)

// Kernel benchmarks for the data plane: each heavy operator (join, hash
// agg, exchange, sort) over the same fact/dimension data at varying
// partition counts, plus a TPC-DS-shaped end-to-end job. The -short
// smoke in scripts/check.sh runs every case once.

const (
	benchFactRows = 100_000
	benchDimRows  = 10_000
)

// benchSchemas matches the sales/items shape used by the unit tests but at
// benchmark scale.
func benchEnv(b *testing.B, parts int) *Executor {
	b.Helper()
	cat := catalog.New()
	// Fixture rows are carved from one contiguous slab (and brand strings
	// interned) so the steady-state heap is a handful of large objects,
	// and carved partition-contiguously — the layout upstream operators
	// produce, since their emit arenas are per-partition. A per-row-
	// allocated, partition-interleaved fixture would add a fixed GC-mark
	// and cache-miss cost to every measured iteration, diluting the
	// kernel cost the benchmark is after.
	slab := make([]data.Value, benchFactRows*4+benchDimRows*2)
	part := func(key int64) int {
		return int(data.Row{data.Int(key)}.Hash64(0) % uint64(parts))
	}
	factPart := make([]int, benchFactRows)
	dimPart := make([]int, benchDimRows)
	offs := make([]int, parts)
	for i := range factPart {
		factPart[i] = part(int64(i % benchDimRows))
		offs[factPart[i]] += 4
	}
	for i := range dimPart {
		dimPart[i] = part(int64(i))
		offs[dimPart[i]] += 2
	}
	next := 0
	for p, n := range offs {
		offs[p] = next
		next += n
	}
	carve := func(p, n int) data.Row {
		r := data.Row(slab[offs[p] : offs[p]+n : offs[p]+n])
		offs[p] += n
		return r
	}
	var brands [26]data.Value
	for i := range brands {
		brands[i] = data.String_("brand_" + string(rune('a'+i)))
	}
	fact := data.NewTable("fact", "fact-v1", salesSchema(), parts)
	rr := 0
	for i := 0; i < benchFactRows; i++ {
		r := carve(factPart[i], 4)
		r[0] = data.Int(int64(i % benchDimRows))
		r[1] = data.Int(int64(i % 37))
		r[2] = data.Int(int64(1 + i%5))
		r[3] = data.Float(float64(i%1000) + 0.25)
		fact.AppendHash(r, []int{0}, &rr)
	}
	dim := data.NewTable("dim", "dim-v1", itemSchema(), parts)
	for i := 0; i < benchDimRows; i++ {
		r := carve(dimPart[i], 2)
		r[0] = data.Int(int64(i))
		r[1] = brands[i%26]
		dim.AppendHash(r, []int{0}, &rr)
	}
	cat.Register(fact)
	cat.Register(dim)
	return &Executor{Catalog: cat, Store: storage.NewStore()}
}

// benchParts is the partition-count axis shared by the kernel benchmarks.
var benchParts = []int{4, 16, 64}

func runKernelBench(b *testing.B, build func(parts int) *plan.Node) {
	for _, parts := range benchParts {
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			e := benchEnv(b, parts)
			root := build(parts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.RunCtx(context.Background(), root, "bench", 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExecJoin(b *testing.B) {
	runKernelBench(b, func(parts int) *plan.Node {
		return plan.Scan("fact", "fact-v1", salesSchema()).
			HashJoin(plan.Scan("dim", "dim-v1", itemSchema()), []int{0}, []int{0}).
			Output("o")
	})
}

func BenchmarkExecHashAgg(b *testing.B) {
	runKernelBench(b, func(parts int) *plan.Node {
		return plan.Scan("fact", "fact-v1", salesSchema()).
			HashAgg([]int{0}, []plan.AggSpec{
				{Fn: plan.AggSum, Col: 3},
				{Fn: plan.AggCount, Col: 2},
				{Fn: plan.AggMax, Col: 3},
			}).
			Output("o")
	})
}

func BenchmarkExecExchange(b *testing.B) {
	runKernelBench(b, func(parts int) *plan.Node {
		return plan.Scan("fact", "fact-v1", salesSchema()).
			ShuffleHash([]int{1}, parts).
			Output("o")
	})
}

func BenchmarkExecSort(b *testing.B) {
	runKernelBench(b, func(parts int) *plan.Node {
		return plan.Scan("fact", "fact-v1", salesSchema()).
			Sort([]int{3}, []bool{true}).
			Output("o")
	})
}

// BenchmarkExecFilter isolates the per-row predicate path: a TPC-DS-shaped
// conjunctive predicate (integer comparison AND an arithmetic bound) over
// the fact table. This is the scalar hot path the expression compiler
// targets — the ns/op here is dominated by predicate evaluation.
func BenchmarkExecFilter(b *testing.B) {
	runKernelBench(b, func(parts int) *plan.Node {
		return plan.Scan("fact", "fact-v1", salesSchema()).
			Filter(expr.And(
				expr.B(expr.OpGt, expr.C(2, "qty"), expr.Lit(data.Int(1))),
				expr.B(expr.OpLt,
					expr.B(expr.OpMul, expr.C(2, "qty"), expr.C(3, "price")),
					expr.Lit(data.Float(1500))))).
			Output("o")
	})
}

// BenchmarkExecProjectEmit isolates the per-row emit path (one fresh row
// per input row) — the allocs/op number is the headline for the row arena.
func BenchmarkExecProjectEmit(b *testing.B) {
	runKernelBench(b, func(parts int) *plan.Node {
		return plan.Scan("fact", "fact-v1", salesSchema()).
			Project([]string{"item", "rev", "qty"}, []expr.Expr{
				expr.C(0, "item"),
				expr.B(expr.OpMul, expr.C(2, "qty"), expr.C(3, "price")),
				expr.C(2, "qty"),
			}).
			Output("o")
	})
}

// BenchmarkExecTPCDS is a TPC-DS-shaped end-to-end job: filtered fact scan,
// dimension join, shuffle on the group key, hash aggregate, global sort,
// top-k — the operator mix the reuse experiments execute all day.
func BenchmarkExecTPCDS(b *testing.B) {
	runKernelBench(b, func(parts int) *plan.Node {
		return plan.Scan("fact", "fact-v1", salesSchema()).
			Filter(expr.B(expr.OpGt, expr.C(2, "qty"), expr.Lit(data.Int(1)))).
			HashJoin(plan.Scan("dim", "dim-v1", itemSchema()), []int{0}, []int{0}).
			ShuffleHash([]int{0}, parts).
			HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggSum, Col: 3}, {Fn: plan.AggCount, Col: 2}}).
			Sort([]int{1}, []bool{true}).
			Top(100).
			Output("o")
	})
}

// BenchmarkStorageReuseHitJob is the end-to-end reuse path: a consumer job
// whose plan was rewritten onto a materialized view (view scan → sort →
// top-k) runs over the columnar view store. The first consume decodes the
// at-rest payload; every following iteration is served decoded rows from
// the storage hot-view cache — the latency a recurring job sees when its
// computation was already done.
func BenchmarkStorageReuseHitJob(b *testing.B) {
	for _, parts := range benchParts {
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			e := benchEnv(b, parts)
			base := plan.Scan("fact", "fact-v1", salesSchema()).
				HashJoin(plan.Scan("dim", "dim-v1", itemSchema()), []int{0}, []int{0}).
				ShuffleHash([]int{0}, parts).
				HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggSum, Col: 3}, {Fn: plan.AggCount, Col: 2}})
			sig := signature.Of(base)
			path := storage.PathFor(sig.Precise, "builder")
			props := plan.PhysicalProps{
				Part: plan.Partitioning{Kind: plan.PartHash, Cols: []int{0}, Count: parts},
			}
			builder := base.Materialize(path, sig.Precise, sig.Normalized, props).Output("o")
			if _, err := e.RunCtx(context.Background(), builder, "builder", 0, 0); err != nil {
				b.Fatal(err)
			}
			consumer := plan.ViewScan(path, base.Schema(), sig.Precise, sig.Normalized).
				Sort([]int{1}, []bool{true}).
				Top(100).
				Output("o")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.RunCtx(context.Background(), consumer, "consumer", 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// nopObsHook is an installed-but-empty vertex hook: the cost of the
// observability seam itself (event assembly + dynamic dispatch), with no
// consumer behind it.
type nopObsHook struct{}

func (nopObsHook) VertexDone(string, VertexEvent) {}

// BenchmarkExecObsOverhead runs the join kernel with the vertex seam
// empty (hook=off, the state after SetObserver(nil)) and with a no-op
// hook installed (hook=on). The service-level guard in scripts/check.sh
// bounds the end-to-end cost this seam contributes to.
func BenchmarkExecObsOverhead(b *testing.B) {
	build := func() *plan.Node {
		return plan.Scan("fact", "fact-v1", salesSchema()).
			HashJoin(plan.Scan("dim", "dim-v1", itemSchema()), []int{0}, []int{0}).
			Output("joined")
	}
	for _, mode := range []struct {
		name string
		hook ObsHook
	}{{"hook=off", nil}, {"hook=on", nopObsHook{}}} {
		b.Run(mode.name, func(b *testing.B) {
			e := benchEnv(b, 16)
			e.Obs = mode.hook
			root := build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.RunCtx(context.Background(), root, "bench", 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
