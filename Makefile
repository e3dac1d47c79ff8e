GO ?= go
FUZZTIME ?= 10s
BENCH_REGRESS_OUT ?= bench-regress.out

.PHONY: all build test bench-test bench-counts race vet fmt-check bench-smoke fuzz-smoke cover lint bench-regress ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark is a module of its own (bench/go.mod, replaced onto
# this one), so ./... above never sees it: vet and test it here, or a
# cp/core change that breaks its build or its node-budget rule is only
# found by the next benchmark run.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The check a change that claims to move no decision runs against its
# parent: short benchmark runs in a checkout of REF and in this one,
# interleaved, failing only when an exact count differs (see the
# script). Not part of `ci`: about five minutes per seed.
bench-counts:
	@test -n "$(REF)" || { echo "usage: make bench-counts REF=<commit> [SEEDS='1 2 3']"; exit 2; }
	bash scripts/bench_counts.sh $(REF) $(SEEDS)

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# A short benchmark pass over every suite: catches bit-rot in the
# harness without paying for full measurement runs.
bench-smoke:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./...

# A short run of every fuzz harness (go test -fuzz accepts one target
# per invocation). Override FUZZTIME for longer campaigns.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzConfigurationJSON -fuzztime=$(FUZZTIME) ./internal/vjob
	$(GO) test -run=^$$ -fuzz=FuzzConfigurationOps -fuzztime=$(FUZZTIME) ./internal/vjob
	$(GO) test -run=^$$ -fuzz=FuzzDomainOps$$ -fuzztime=$(FUZZTIME) ./internal/cp
	$(GO) test -run=^$$ -fuzz=FuzzBoundsDomainOps -fuzztime=$(FUZZTIME) ./internal/cp
	$(GO) test -run=^$$ -fuzz=FuzzTraceDecode -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzSplit -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzAdvanceAudit -fuzztime=$(FUZZTIME) ./internal/monitor

# Atomic-mode coverage with per-package floors: the floors file pins a
# minimum for every load-bearing package, so a PR cannot silently strip
# tests. Regenerate floors deliberately when coverage genuinely moves.
cover:
	@$(GO) test -covermode=atomic -coverprofile=coverage.out ./... > cover.txt 2>&1 || { cat cover.txt; exit 1; }
	@cat cover.txt
	@$(GO) tool cover -func=coverage.out | tail -1
	./scripts/check_coverage.sh cover.txt scripts/coverage_floors.txt

# staticcheck when available; CI installs it and sets LINT_REQUIRED=1
# so the gate cannot be skipped there, while local builders without the
# binary are not blocked.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -n "$$LINT_REQUIRED" ]; then \
		echo "staticcheck is required (LINT_REQUIRED set) but not installed"; exit 1; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Guard the loop/portfolio/partition hot paths against >3x ns/op
# regressions vs the committed BENCH_*.json baselines. 100 iterations
# smooth the noise; every gated benchmark is either budget-bound or
# millisecond-scale, so the run stays short.
bench-regress:
	$(GO) test -run '^$$' -bench 'BenchmarkLoopEventIteration|BenchmarkLoopPeriodicIteration|BenchmarkLoopTracingOff|BenchmarkLoopAttributionOff|BenchmarkPartitionSplit' -benchtime=100x ./internal/core > $(BENCH_REGRESS_OUT)
	$(GO) test -run '^$$' -bench 'BenchmarkChurnLoop|BenchmarkDrainEvacuation|BenchmarkMultiResourceSolve|BenchmarkRepairStorm|BenchmarkMigrationStudy|BenchmarkChaosStudy' -benchtime=100x ./internal/experiments >> $(BENCH_REGRESS_OUT)
	$(GO) run ./cmd/benchregress -factor 3 -bench $(BENCH_REGRESS_OUT) BENCH_ci.json BENCH_eventloop.json BENCH_drain.json BENCH_multires.json BENCH_repair.json BENCH_migration.json BENCH_chaos.json BENCH_obs.json BENCH_attrib.json

# Remove the CI gate's by-products (all three are gitignored; this
# keeps a dirty checkout tidy).
clean:
	rm -f cover.txt coverage.out $(BENCH_REGRESS_OUT)

# The one-command gate every PR must pass. `cover` runs the full test
# suite (with coverage) itself, so a separate plain `test` pass would
# only repeat it; `race` is the second, differently-instrumented run.
ci: build vet fmt-check lint race bench-test bench-smoke fuzz-smoke cover bench-regress
