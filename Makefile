GO ?= go

.PHONY: build test race vet fmt check report bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet runs both the standard toolchain vet (which owns lock copies and
# unreachable code) and the repository's own cross-layer analyzers
# (layer DAG, determinism, map order, error discipline, crypto misuse,
# sealed payloads and secret leaks, //xlf:hotpath allocations, exported
# API only tests use). Lock
# balance, lock order, goroutine leaks and shared globals are caught by
# the tests and -race (DESIGN.md §6). Sanctioned exceptions are inline
# //xlf:allow-* markers.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/xlf-vet ./...

fmt:
	gofmt -w .

# check is the CI gate: formatting, both vets, build, race tests.
check:
	sh scripts/check.sh

# report regenerates every paper table and figure.
report:
	$(GO) run ./cmd/xlf-bench -all

# bench runs the full experiment suite in parallel and writes the
# versioned BENCH_<id>.json artifacts to out/bench. They record results,
# not host timing: compare step-clock sets with cmp, and measure wall
# time with bench/_perf/run.sh.
bench:
	$(GO) run ./cmd/xlf-bench -all -parallel 8 -json out/bench
