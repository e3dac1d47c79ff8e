GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test bench-test bench-counts prod-cover prod-cover-check race race-pool vet fmt-check fuzz-smoke cover lint ci clean

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

# The production-traffic census: coverage of internal/ over what the
# commands, examples and benchmark workloads run, and a listening
# entropyd serves to a fixed request replay, least covered first, in
# prod-cover.txt, and the blocks none of them ran in
# prod-cover-blocks.txt (see the script). Check it before deleting code.
# Not part of `ci`: one to two minutes (75 s on a 2-core Xeon VM with
# a warm build cache).
prod-cover:
	bash scripts/prod_cover.sh

# The census as a gate (CI runs it as a job of its own): fails on a
# function at 0 % that scripts/prod_cover_zero.txt does not list, and
# on a listed one that production reaches or that is gone.
prod-cover-check:
	bash scripts/prod_cover.sh --check

race:
	$(GO) test -race ./...

# solveSlices runs min(slices, GOMAXPROCS) workers, and a portfolio's
# workers share GOMAXPROCS cores, so a plain run tests only the
# machine's own width: run the pool's tests, the solver Reset they
# rest on, the cancel tests, the reuse of candidates across workers
# and of idle scratches across solves, carves and decisions (concurrent
# ones and one after a panic), under the race detector at widths 1, 2
# and 4.
race-pool:
	$(GO) test -race -cpu 1,2,4 -run 'SlicePool|DirtySlices|ResetSolver|PortfolioCancel|CancelLandsAt|EscapedResult|EscapedPublicResults|ConcurrentSolves|ConcurrentCarves|ConcurrentDecide|PanickingRule|IdleScratches' ./internal/core ./internal/cp ./internal/sched

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# A short run of every fuzz harness (go test -fuzz accepts one target
# per invocation). Override FUZZTIME for longer campaigns.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzConfigurationJSON -fuzztime=$(FUZZTIME) ./internal/vjob
	$(GO) test -run=^$$ -fuzz=FuzzConfigurationOps -fuzztime=$(FUZZTIME) ./internal/vjob
	$(GO) test -run=^$$ -fuzz=FuzzDomainOps$$ -fuzztime=$(FUZZTIME) ./internal/cp
	$(GO) test -run=^$$ -fuzz=FuzzBoundsDomainOps -fuzztime=$(FUZZTIME) ./internal/cp
	$(GO) test -run=^$$ -fuzz=FuzzDeltaPropagation -fuzztime=$(FUZZTIME) ./internal/cp
	$(GO) test -run=^$$ -fuzz=FuzzTraceDecode -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzSplit -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzLoopTransitions -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzAdvanceAudit -fuzztime=$(FUZZTIME) ./internal/monitor
	$(GO) test -run=^$$ -fuzz=FuzzActionFacts -fuzztime=$(FUZZTIME) ./internal/plan
	$(GO) test -run=^$$ -fuzz=FuzzActionFacts -fuzztime=$(FUZZTIME) ./internal/drivers
	$(GO) test -run=^$$ -fuzz=FuzzGroupResumes -fuzztime=$(FUZZTIME) ./internal/plan
	$(GO) test -run=^$$ -fuzz=FuzzWorkspaceMatchesFresh -fuzztime=$(FUZZTIME) ./internal/plan
	$(GO) test -run=^$$ -fuzz=FuzzDecide -fuzztime=$(FUZZTIME) ./internal/sched
	$(GO) test -run=^$$ -fuzz=FuzzLabelValue -fuzztime=$(FUZZTIME) ./internal/api
	$(GO) test -run=^$$ -fuzz=FuzzExpositionMatchesReference -fuzztime=$(FUZZTIME) ./internal/api
	$(GO) test -run=^$$ -fuzz=FuzzSubmitVJob -fuzztime=$(FUZZTIME) ./internal/api

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

# Remove the coverage gate's and the census's by-products (all
# gitignored; this keeps a dirty checkout tidy).
clean:
	rm -f cover.txt coverage.out prod-cover.txt prod-cover-blocks.txt

# The one-command gate every PR must pass. `cover` runs the full test
# suite (with coverage) itself, so a separate plain `test` pass would
# only repeat it; `race` is the second, differently-instrumented run.
ci: build vet fmt-check lint race race-pool bench-test fuzz-smoke cover
