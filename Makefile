GO ?= go

.PHONY: build test race vet vet-fix vet-concurrency vet-determinism fmt check report bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet runs both the standard toolchain vet (which owns lock copies and
# unreachable code) and the repository's own cross-layer analyzers
# (layer DAG, determinism, error discipline, pairing, crypto misuse,
# dead stores, taint, concurrency). DESIGN.md §6 lists what each guards.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/xlf-vet -baseline vet-baseline.json ./...

# vet-fix applies xlf-vet's suggested mechanical edits, then fails if
# the tree is left dirty — i.e. there were fixable findings. Run it,
# review the diff, commit.
vet-fix:
	$(GO) run ./cmd/xlf-vet -baseline vet-baseline.json -fix ./... || true
	git diff --exit-code

# vet-concurrency runs just the concurrency-safety layer — the
# lock-order graph, goroutine-leak and //xlf:hotpath allocation rules —
# for quick iteration on locking or hot-path code.
vet-concurrency:
	$(GO) run ./cmd/xlf-vet -only lockorder,goroleak,hotpathalloc -baseline vet-baseline.json ./...

# vet-determinism runs the reproduction-contract layer — the per-file
# determinism rule plus the call-graph rules detflow, globalmut,
# maporder and hotpathalloc — for quick iteration on simulator or
# experiment code.
vet-determinism:
	$(GO) run ./cmd/xlf-vet -only determinism,detflow,globalmut,maporder,hotpathalloc -baseline vet-baseline.json ./...

fmt:
	gofmt -w .

# check is the CI gate: formatting, both vets, build, race tests.
check:
	sh scripts/check.sh

# report regenerates every paper table and figure.
report:
	$(GO) run ./cmd/xlf-bench -all

# bench runs the full experiment suite in parallel and writes the
# versioned BENCH_<id>.json artifacts to out/bench.
bench:
	$(GO) run ./cmd/xlf-bench -all -parallel 8 -json out/bench
