#!/bin/sh
# check.sh — the full local gate: vet, build, tests, the race detector on
# every concurrent package, fuzz smokes, the chaos soak, the observability
# allocation guard, and a 1-iteration smoke of every benchmark.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go build ./...
go test ./...
make race
# Fuzz smokes over the seeded corpora: the columnar codec round trip (all
# kinds, NULLs, corrupt-payload rejection), the row arena (exact-width,
# non-overlapping rows across hinted and grown blocks) and
# compiled-vs-interpreted expression evaluation (bit-identical on
# wrong-kind, NULL and NaN rows).
go test -run='^$' -fuzz='^FuzzColencRoundTrip$' -fuzztime=10s ./internal/data/colenc/
go test -run='^$' -fuzz='^FuzzRowArena$' -fuzztime=10s ./internal/data/
go test -run='^$' -fuzz='^FuzzCompiledEval$' -fuzztime=10s ./internal/expr/
# Chaos soak under the race detector: concurrent jobs through a seeded
# fault schedule with per-job output validation, plus a lifecycle wave
# (cancellations, tight deadlines) whose goroutine-leak gate covers the
# lifecycle machinery. `make chaos` runs the long version.
CHAOS_ROUNDS="${CHAOS_ROUNDS:-2}" go test -race -run='TestChaosSoak' -count=1 ./internal/core/
# Observability allocation guard on the warmed submit path: obs=metrics
# (the always-on counters) may allocate at most OBS_ALLOC_BUDGET more per
# job than obs=off (every hook seam nil). Allocation counts are
# deterministic, so this fails the moment a hot hook allocates per submit.
OBS_TMP="$(mktemp)"
go test -run='^$' -bench='^BenchmarkSubmit$/^obs=(off|metrics)$' \
	-benchmem -benchtime=0.2s ./internal/core/ | tee "$OBS_TMP"
awk -v budget="${OBS_ALLOC_BUDGET:-5}" '
	/^BenchmarkSubmit\/obs=off/     { off = $7 + 0; seen++ }
	/^BenchmarkSubmit\/obs=metrics/ { met = $7 + 0; seen++ }
	END {
		if (seen != 2) { print "obs guard: missing benchmark output"; exit 1 }
		printf "obs guard: off=%d metrics=%d allocs/op (budget +%s)\n", off, met, budget
		if (met - off > budget + 0) { print "obs guard: metrics hooks allocate over budget"; exit 1 }
	}
' "$OBS_TMP"
rm -f "$OBS_TMP"
# Smoke-run every benchmark once; -short drops the largest input sizes
# (the 500k-observation analyzer and 200k-observation append runs) so this
# finishes quickly.
go test -run='^$' -bench=. -benchtime=1x -short ./...
