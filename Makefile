GO ?= go

.PHONY: all build test vet lint race bench bench-smoke ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (determinism / hot-path / API
# invariants; see docs/LINTING.md), plus staticcheck when installed.
lint:
	$(GO) run ./cmd/relief-lint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# Race-detector pass, the same two commands scripts/ci.sh runs: the
# serving, tracing and sweep-client packages run their full suites (their
# long tests exercise real goroutine fan-out); everything else runs -short
# (the golden digests and long sweeps are skipped).
race:
	$(GO) test -race ./internal/serve/... ./internal/svctrace/... ./cmd/relief-sweep/...
	$(GO) test -race -short $$($(GO) list ./... | grep -v -e '^relief/internal/serve' -e '^relief/internal/svctrace' -e '^relief/cmd/relief-sweep')

# Every testing.B target (one per table/figure, plus micro-benchmarks)
# with allocation stats (slow). Add -cpuprofile/-memprofile/-trace to a
# single target for profiles; throughput and per-layer figures come from
# benchmark/run.sh (benchmark/README.md).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# One iteration of the hot-path benchmark: keeps the testing.B targets
# building and running without the full sweep's cost.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig4$$' -benchtime=1x -benchmem .

ci:
	./scripts/ci.sh

clean:
	rm -f cpu.out mem.out trace.out
