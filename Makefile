.PHONY: check test race bench chaos

check:
	./scripts/check.sh

test:
	go build ./... && go test ./...

# The race detector on every concurrent package; scripts/check.sh runs
# this target, so the list lives here only.
race:
	go test -race . ./internal/core/ ./internal/exec/ ./internal/data/ \
		./internal/storage/ ./internal/expr/ ./internal/analyzer/ \
		./internal/breaker/ ./internal/obs/ ./internal/metadata/ \
		./internal/workload/ ./internal/plan/ ./internal/catalog/ \
		./internal/optimizer/ ./internal/signature/ ./internal/fault/ \
		./internal/bench/

# Long chaos soak: hundreds of concurrent jobs per round under a seeded
# fault schedule, race detector on. CHAOS_ROUNDS scales the length.
chaos:
	CHAOS_ROUNDS=$${CHAOS_ROUNDS:-25} go test -race -run='TestChaosSoak' -count=1 -v ./internal/core/

bench:
	go test -run='^$$' -bench=. -benchmem ./...
