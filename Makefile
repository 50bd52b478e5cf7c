# Stdlib-only Go; these targets just bundle the usual invocations.

.PHONY: all build test race vet bench figures check check-fast soak soak-short

all: build

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

# Substrate microbenchmarks (event kernel + one full put).
bench:
	go test -run xxx -bench 'SimulatorEventThroughput$$|SimulatorZeroDelayLane|SimulatorEventThroughputDeep|SimulatedPut' -benchmem .

# Every paper figure, one iteration each.
figures:
	go test -run xxx -bench 'Figure' -benchtime 1x -benchmem .

# The pre-commit gate: vet + build + race tests + substrate benchmarks
# against the committed BENCH_substrate.json baselines.
check:
	sh scripts/check.sh

check-fast:
	sh scripts/check.sh -fast

# Chaos soak campaigns: seeded virtual-time fault schedules over the
# standard workloads at shards 1 and 4, ledger-balanced and byte-identical
# across shard counts; failures auto-bisect to a minimal schedule under
# soak_artifacts/. Trend history accumulates in SOAK_trend.json next to
# BENCH_substrate.json, and each arm drops its counter table and
# host-execution profile under soak_artifacts/ (render the directory with
# p3stat). soak-short is the ~1 minute CI gate.
soak:
	go run ./cmd/soak -seeds 5 -out SOAK_trend.json

soak-short:
	go run ./cmd/soak -short -out SOAK_trend.json
