GO ?= go
BENCH ?= .
BENCHCOUNT ?= 5
BENCHTIME ?= 1s
# GOMAXPROCS sweep for the multi-core scaling benchmarks: the pipeline
# and ISM ingest paths are the ones the sharded merge is supposed to
# scale, so `make bench` re-runs them at each of these proc counts.
BENCHCPUS ?= 1,2,4,8
SWEEPBENCH ?= PipelineThroughput|ISMPipeline|TieredScan|ReplayFirehose|RelayFanIn
# staticcheck version the CI workflow pins; keep the local install in
# sync with `go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)`.
STATICCHECK_VERSION ?= 2025.1
SHA := $(shell git rev-parse --short HEAD)
# benchdiff inputs: baseline file, candidate file, and the ns/op
# regression percentage that fails the diff.
BASELINE ?= $(firstword $(sort $(wildcard BENCH_*.json)))
CANDIDATE ?= BENCH_$(SHA).json
THRESHOLD ?= 5

.PHONY: check vet staticcheck build test race stress bench benchsmoke benchdiff fuzzsmoke fmt

# check is the tier-1 gate: vet, staticcheck (when installed), build,
# the full test suite under the race detector, a one-iteration
# compile-and-run pass over every benchmark so a broken benchmark
# cannot sit undetected until the next `make bench`, and a short fuzz
# of the columnar segment decoder. Run it before every commit.
check: vet staticcheck build race benchsmoke fuzzsmoke

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is on PATH and is skipped with a
# notice otherwise (offline containers cannot `go install` it); CI
# always installs the pinned $(STATICCHECK_VERSION), so findings never
# reach main unchecked either way.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs $(STATICCHECK_VERSION))"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# stress re-runs the concurrent relay and merge tests many times under
# the race detector, so a test that fails one run in ten shows up here
# instead of flaking in the tier-1 gate. TestCloseRacingInject alone
# runs ~40 s under -race on 2 CPUs, hence the longer timeout.
STRESSCOUNT ?= 20
stress:
	$(GO) test -race -count=$(STRESSCOUNT) ./internal/isruntime/relay/ ./internal/trace/
	$(GO) test -race -count=$(STRESSCOUNT) -timeout 30m -run 'TestMerge|TestShardedOrderedEquivalence|TestCloseRacingInject' ./internal/isruntime/ism/

# bench records a committed baseline: -count runs of every benchmark,
# aggregated into BENCH_<sha>.json (ns/op min/mean/max, allocs/op, and
# the GOMAXPROCS/NumCPU context that makes speedups interpretable).
# Narrow with e.g. `make bench BENCH=FactorialVista BENCHCOUNT=3`.
bench:
	$(GO) test -run XXX -timeout 0 -bench '$(BENCH)' -benchtime $(BENCHTIME) -benchmem -count $(BENCHCOUNT) ./... | tee bench.out
	$(GO) test -run XXX -timeout 0 -bench '$(SWEEPBENCH)' -benchtime $(BENCHTIME) -benchmem -count $(BENCHCOUNT) -cpu $(BENCHCPUS) . | tee -a bench.out
	$(GO) run ./cmd/benchjson -sha $(SHA) < bench.out > BENCH_$(SHA).json
	@rm -f bench.out
	@echo wrote BENCH_$(SHA).json

# benchsmoke runs every benchmark exactly once — no timing fidelity,
# just proof that each one still compiles, runs, and terminates.
benchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) test -run=NONE -bench='$(SWEEPBENCH)' -benchtime=1x -cpu 4 .

# fuzzsmoke gives the decoder fuzz targets a short budget: enough to
# catch a decode regression on the corpus plus fresh mutations, cheap
# enough to sit inside the tier-1 gate. Both ends of the columnar
# codec's life are covered: segment files and wire frames.
fuzzsmoke:
	$(GO) test -run=NONE -fuzz='FuzzSegmentDecode' -fuzztime=10s ./internal/trace
	$(GO) test -run=NONE -fuzz='FuzzColumnarFrameDecode' -fuzztime=10s ./internal/isruntime/tp

# benchdiff compares two committed baselines and fails on ns/op
# regressions past THRESHOLD percent:
#   make benchdiff BASELINE=BENCH_old.json CANDIDATE=BENCH_new.json
benchdiff:
	$(GO) run ./cmd/benchjson -compare -threshold $(THRESHOLD) $(BASELINE) $(CANDIDATE)

fmt:
	gofmt -l -w .
