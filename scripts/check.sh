#!/bin/sh
# check.sh — the full local gate: vet, gofmt, build, tests, the race
# detector on every concurrent package (which includes the chaos soak at
# its default length), a run of every example, fuzz smokes, the
# observability allocation guard, and a 1-iteration smoke of every
# benchmark.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
test -z "$(gofmt -l .)"
go build ./...
go test ./...
make race
# The examples are the façade's only end-to-end callers: run each one, so
# a runtime failure (a log.Fatal) fails the gate, not just a compile error.
for d in examples/*/; do [ -f "$d/main.go" ] && go run "./$d" >/dev/null; done
# Fuzz smokes over the seeded corpora: the columnar codec round trip (all
# kinds, NULLs, corrupt-payload rejection), the row arena (exact-width,
# non-overlapping rows across hinted and grown blocks) and
# compiled-vs-interpreted expression evaluation (bit-identical on
# wrong-kind, NULL and NaN rows).
go test -run='^$' -fuzz='^FuzzColencRoundTrip$' -fuzztime=10s ./internal/data/colenc/
go test -run='^$' -fuzz='^FuzzRowArena$' -fuzztime=10s ./internal/data/
go test -run='^$' -fuzz='^FuzzCompiledEval$' -fuzztime=10s ./internal/expr/
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
