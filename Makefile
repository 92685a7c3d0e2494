GO ?= go
GOFMT ?= gofmt

# Packages whose concurrency runs under the race detector: phase and
# logical run stage A once per concurrent service request, so any
# state they share across calls must be race-free; obs is written to
# by every simulated rank (and ./internal/obs/... recursively covers
# obshttp, whose tests scrape a live server while spans and flight
# events are recorded), faults counters are bumped from rank
# goroutines, sigrepo serializes concurrent writers on a lock file,
# trace runs the decode pool (blocks verified and deserialised on
# GOMAXPROCS workers), and service (plus its daemon, whose test runs
# the real pas2pd process under mixed traffic and a SIGTERM) serves
# concurrent HTTP traffic over shared admission, cache, and drain state —
# including the chaos serving proof. signature and mpi end their runs
# early by unwinding the parked rank goroutines while the caller
# carries on; so does the partial-execution baseline in predict. And
# predict.Sign analyses the traced run while its ranks record it: the
# recorders hand their chunks to the analysis and take them back. The
# partial-execution and live-Sign tests (small apps) are the only part
# of that (slow) package run under the detector.
RACE_PKGS = ./internal/phase/... ./internal/logical/... ./internal/obs/... ./internal/faults/... ./internal/sigrepo/... ./internal/fsx/... ./internal/trace/... ./internal/sim/... ./internal/signature/... ./internal/mpi/... ./internal/service/... ./cmd/pas2pd/...

.PHONY: build fmt test race bench soak-100m check cover fuzz

build:
	$(GO) build ./...

# Formatting gate: fails, listing the files, when gofmt would rewrite
# any Go file in the tree (perfbench included).
fmt:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -run 'PartialExec|LiveSign' ./internal/predict

# Extraction over the six largest registered workloads: the reference
# scan (seed) against the production scan (indexed); medians over
# -count 3 are what README quotes. Then the per-event costs of the
# stage-A input: the logical order over ring traces at 32 and 128
# ranks and over lu classA at 128 ranks (a wavefront with sparse
# ticks), in memory and from the rank streams of its v2 bytes; a
# traced run's recording, packed into a fresh recording, and fresh
# recordings assembled into a trace or drained, each read once;
# writing the trace; and decoding a
# tracefile of 10k and of 1M events back into a trace. Last, the
# per-operation cost of a traced 128-rank run: one SendrecvN and one
# Allreduce on every rank, with their allocations.
bench:
	$(GO) test ./internal/phase -run xxx -bench ExtractApps -benchtime 5x -count 3
	$(GO) test ./internal/logical ./internal/trace -run xxx -bench 'OrderPAS2P|Recording|EncodeRanks|Decode' -benchtime 20x -count 3
	$(GO) test ./internal/mpi -run xxx -bench 'TracedSendrecv|TracedAllreduce' -benchtime 2000x -count 3

# Out-of-core soak at full scale: 100M synthetic events streamed under
# a memory budget, peak heap asserted < 10% of the in-core event
# footprint. Writes the machine-readable scale point to soak100m.json.
soak-100m:
	PAS2P_SOAK_EVENTS=100000000 PAS2P_SOAK_JSON=soak100m.json \
		$(GO) test . -run TestStreamSoakBoundedMemory -count=1 -v -timeout 1800s

# Statement coverage with the CI ratchet threshold.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Native fuzz smoke: one -fuzz target per invocation. This is the one
# list of fuzz targets; CI runs it as is.
fuzz:
	$(GO) test -fuzz=FuzzDecodeTracefile -fuzztime=10s ./internal/trace
	$(GO) test -fuzz=FuzzBlockReader -fuzztime=10s ./internal/trace
	$(GO) test -fuzz=FuzzRecordingRoundTrip -fuzztime=10s ./internal/trace
	$(GO) test -fuzz=FuzzPackRoundTrip -fuzztime=10s ./internal/trace
	$(GO) test -fuzz=FuzzLogicalOrder -fuzztime=10s ./internal/logical
	$(GO) test -fuzz=FuzzAnalyzeTrace -fuzztime=10s ./internal/phase
	$(GO) test -fuzz=FuzzAnalyzeStream -fuzztime=10s ./internal/phase
	$(GO) test -fuzz=FuzzServiceRequest -fuzztime=10s ./internal/service
	$(GO) test -fuzz=FuzzLoadSaved -fuzztime=10s ./internal/signature

check: build
	$(MAKE) fmt
	$(GO) vet ./...
	cd perfbench && $(GO) build ./... && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -shuffle=on ./...
	$(MAKE) race
