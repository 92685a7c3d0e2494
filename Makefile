GO ?= go

# Packages whose concurrency runs under the race detector: phase and
# logical carry the extraction parallelism, obs is written to by every
# simulated rank (and ./internal/obs/... recursively covers obshttp,
# whose tests scrape a live server while spans and flight events are
# recorded), faults counters are bumped from rank goroutines, sigrepo
# serializes concurrent writers on a lock file, trace runs the
# parallel block codec (encode pool, decode batch engine), scenario
# runs campaign cases on a bounded worker pool, and service (plus its
# daemon and load generator) serves concurrent HTTP traffic over
# shared admission, cache, and drain state — including the chaos
# serving proof. signature and mpi end their runs early by unwinding
# the parked rank goroutines while the caller carries on.
RACE_PKGS = ./internal/phase/... ./internal/logical/... ./internal/obs/... ./internal/faults/... ./internal/sigrepo/... ./internal/fsx/... ./internal/trace/... ./internal/sim/... ./internal/signature/... ./internal/mpi/... ./internal/scenario/... ./internal/service/... ./cmd/pas2pd/... ./cmd/pas2p-loadgen/...

.PHONY: build test race bench bench-json bench-baseline soak-100m check cover fuzz scenarios

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Extraction over the six largest registered workloads: the reference
# scan (seed) against the production scan, sequential and with parallel
# candidate scoring; medians over -count 3 are what README quotes.
bench:
	$(GO) test ./internal/phase -run xxx -bench ExtractApps -benchtime 5x -count 3

# Machine-readable benchmark document: pipeline rows (table 8/9), the
# block-codec worker sweep, the observer-overhead comparison
# (instrumented vs nil-observer pipeline), and the out-of-core
# streaming scale point. BENCH_PR10.json is the committed copy (its
# 100M-event stream row comes from the soak test, not this target).
bench-json:
	$(GO) run ./cmd/pas2p-bench -table 8 -json BENCH_PR10.json

# Out-of-core soak at full scale: 100M synthetic events streamed under
# a memory budget, peak heap asserted < 10% of the in-core event
# footprint. Writes the machine-readable scale point to soak100m.json.
soak-100m:
	PAS2P_SOAK_EVENTS=100000000 PAS2P_SOAK_JSON=soak100m.json \
		$(GO) test . -run TestStreamSoakBoundedMemory -count=1 -v -timeout 1800s

# Refresh the benchstat baseline CI compares against. Run on a quiet
# machine; commit bench/baseline.txt with the change that moves it.
# The simulator's per-operation benchmarks need many iterations per
# sample (2 PingPong round trips measure nothing), so they run apart.
bench-baseline:
	$(GO) test ./internal/trace ./internal/phase -run xxx -bench . -benchtime 2x -count 3 | tee bench/baseline.txt
	$(GO) test ./internal/sim -run xxx -bench . -benchtime 100000x -count 3 | tee -a bench/baseline.txt

# Statement coverage with the CI ratchet threshold.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Native fuzz smoke: one -fuzz target per invocation.
fuzz:
	$(GO) test -fuzz=FuzzCompressRoundTrip -fuzztime=10s ./internal/trace
	$(GO) test -fuzz=FuzzDecodeTracefile -fuzztime=10s ./internal/trace
	$(GO) test -fuzz=FuzzBlockReader -fuzztime=10s ./internal/trace
	$(GO) test -fuzz=FuzzLogicalOrder -fuzztime=10s ./internal/logical
	$(GO) test -fuzz=FuzzScenarioParse -fuzztime=10s ./internal/scenario
	$(GO) test -fuzz=FuzzServiceRequest -fuzztime=10s ./internal/service

# Execute the starter scenario suite end to end (the declarative
# chaos/predict campaign; see examples/scenarios/).
scenarios: build
	$(GO) run ./cmd/pas2p scenario run examples/scenarios -junit scenario-results.xml

check: build
	$(GO) vet ./...
	cd perfbench && $(GO) build ./... && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -shuffle=on ./...
	$(GO) test -race $(RACE_PKGS)
