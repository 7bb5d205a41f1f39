#!/usr/bin/env sh
# The full local/CI gate for the xlf repository. Mirrors
# .github/workflows/ci.yml; `make check` runs this script.
set -eu

cd "$(dirname "$0")/.."

# One scratch directory for every stage's outputs, removed on exit.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo '>> gofmt'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo '>> go vet ./...'
go vet ./...

echo '>> go build ./...'
go build ./...

# The race suite runs in two steps so a hung test fails in minutes. Every
# package but internal/exp gets -timeout 4m, at least 3x the slowest
# one's race time (cmd/xlf-bench, about 56 s on a 2-vCPU Xeon).
# internal/exp alone takes 220-237 s under -race (three runs, 2-vCPU
# Xeon, Go 1.24), so it keeps go test's default 10-minute timeout.
echo '>> go test -race -timeout 4m (every package but internal/exp)'
go test -race -timeout 4m $(go list ./... | grep -v '/internal/exp$')
echo '>> go test -race ./internal/exp'
go test -race ./internal/exp

# bench/_perf is a module of its own, so ./... never builds it; it reads
# the testbed's captures, the IDS and the Core, so a library change can
# break it unseen.
echo '>> bench/_perf: go vet + go test'
(cd bench/_perf && go vet . && go test .)

# Fuzz smoke: a few seconds per corpus keeps the harnesses honest (a
# bit-rotted fuzz target fails here, not six months from now) and still
# catches shallow regressions in the codec/seal paths.
echo '>> fuzz smoke (5s per target)'
go test -run='^$' -fuzz='^FuzzOpen$' -fuzztime=5s ./internal/channel
go test -run='^$' -fuzz='^FuzzSealAppend$' -fuzztime=5s ./internal/channel
go test -run='^$' -fuzz='^FuzzSum64$' -fuzztime=5s ./internal/lwc
go test -run='^$' -fuzz='^FuzzCMAC$' -fuzztime=5s ./internal/lwc
go test -run='^$' -fuzz='^FuzzCFGBuild$' -fuzztime=5s ./internal/analysis
go test -run='^$' -fuzz='^FuzzCallGraph$' -fuzztime=5s ./internal/analysis
go test -run='^$' -fuzz='^FuzzKernelSchedule$' -fuzztime=5s ./internal/sim
go test -run='^$' -fuzz='^FuzzCoreIngest$' -fuzztime=5s ./internal/core
go test -run='^$' -fuzz='^FuzzIDSProcess$' -fuzztime=5s ./internal/ids
go test -run='^$' -fuzz='^FuzzMatcherFindAll$' -fuzztime=5s ./internal/dpi
go test -run='^$' -fuzz='^FuzzCaptureRecords$' -fuzztime=5s ./internal/netsim
go test -run='^$' -fuzz='^FuzzReadJSONL$' -fuzztime=5s ./internal/obs

# Blocking: any finding fails. Exceptions are inline //xlf:allow-*
# markers, and TestEveryWaiverSuppressesAFinding (in the race suite
# above) fails on any marker that no longer suppresses a finding.
echo '>> xlf-vet ./... (self-gate)'
go run ./cmd/xlf-vet ./...

# Blocking: full-repo vet wall time must stay within 1.25x of the
# committed bench/seed/VET.json budget (best of three timed runs).
echo '>> xlf-vet wall-time budget'
XLF_VET_WALL_GUARD=1 go test -run='^TestVetWarmWallBudget$' -v ./cmd/xlf-vet

# Scheduler determinism: the full report rendered at -parallel 8 must be
# byte-identical to the sequential run under the step clock, with the
# worker pool running under the race detector.
echo '>> xlf-bench determinism (parallel 8 vs sequential, race detector)'
go run -race ./cmd/xlf-bench -all -clock step -seed 1 -parallel 1 \
	-json "$tmp/sequential" >"$tmp/report-sequential.txt"
go run -race ./cmd/xlf-bench -all -clock step -seed 1 -parallel 8 \
	-json "$tmp/parallel" >"$tmp/report-parallel.txt"
cmp "$tmp/report-sequential.txt" "$tmp/report-parallel.txt"

# Blocking: BENCH_<id>.json artifacts hold only deterministic content,
# so every artifact must be byte-identical across -parallel levels, and
# the committed bench/seed baselines must reproduce byte for byte.
echo '>> bench artifacts (cmp: parallel 8 vs sequential, bench/seed vs sequential)'
for f in "$tmp"/sequential/*; do
	cmp "$f" "$tmp/parallel/$(basename "$f")"
done
for f in bench/seed/BENCH_*.json; do
	cmp "$f" "$tmp/sequential/$(basename "$f")"
done

# Observation determinism: with the step clock and both halves of the
# observation tree on (E1 traces and rolls up, E10 rolls up its attack
# timeline), the serialized xlf-trace/v1 and xlf-metrics/v1 files must be
# byte-identical across -parallel levels with the worker pool under the
# race detector, and xlf-trace must render both.
echo '>> trace + telemetry determinism (parallel 8 vs sequential, race detector)'
for p in 1 8; do
	go run -race ./cmd/xlf-bench -exp E1,E10 -clock step -seed 1 -parallel $p \
		-trace "$tmp/trace-$p.jsonl" -telemetry "$tmp/metrics-$p.jsonl" >/dev/null
done
cmp "$tmp/trace-1.jsonl" "$tmp/trace-8.jsonl"
cmp "$tmp/metrics-1.jsonl" "$tmp/metrics-8.jsonl"
go run ./cmd/xlf-trace "$tmp/trace-1.jsonl" >"$tmp/trace-timeline.txt"
go run ./cmd/xlf-trace metrics "$tmp/metrics-1.jsonl" >"$tmp/metrics-rollup.txt"

# Non-blocking: disabled-tracer overhead on the Core hot path. The two
# ingest benchmarks must stay within noise of each other; the numbers are
# printed for the log, never gating (micro-benchmarks flap on shared CI).
echo '>> tracer overhead benchmark (non-blocking)'
go test -run='^$' -bench='^BenchmarkCoreIngest(Traced)?$' -benchtime=1s . ||
	echo 'tracer overhead bench: failed (non-blocking)'

# Informational numbers for the log: kernel dispatch, netsim send and
# the gateway keepalive (NewPacket to release), plain and sealed into a
# network-owned payload buffer, and a NAC refusal (SendOut through the
# deny signal into a warm Core) must print 0 allocs/op; the capture
# tap prints the bytes one encoded record costs (B/op).
# The enforcement lives in the AllocsPerRun tests above (the dynamic
# half of the //xlf:hotpath contract); this step puts the ns/op trend
# in the log.
echo '>> kernel hot-path benchmarks'
go test -run='^$' -bench='^BenchmarkKernelDispatch$' -benchmem -benchtime=1s ./internal/sim
go test -run='^$' -bench='^(BenchmarkNetsimSend|BenchmarkGatewayKeepalive|BenchmarkSealedKeepalive|BenchmarkCaptureTap)$' -benchmem -benchtime=1s ./internal/netsim
go test -run='^$' -bench='^BenchmarkLayer$/^core$/^nac-deny$' -benchmem -benchtime=1s .

echo 'all checks passed'
