GO  ?= go
PKG := ./...

BENCH_TIME ?= 2s
FUZZ_TIME  ?= 30s

.PHONY: all
all: build test lint

.PHONY: build
build:
	$(GO) build $(PKG)

.PHONY: fmt
fmt:
	$(GO) fmt $(PKG)

.PHONY: vet
vet:
	$(GO) vet $(PKG)

.PHONY: test
test:
	$(GO) test $(PKG)

.PHONY: test-short
test-short:
	$(GO) test -short $(PKG)

.PHONY: test-race
test-race:
	$(GO) test -race -short $(PKG)

# examples runs every program under examples/ from its own directory, so
# an API change that only fails at run time (say, an engine built on an
# unfrozen graph) fails here.
.PHONY: examples
examples:
	@for d in examples/*/; do echo "== $$d"; (cd $$d && $(GO) run .) || exit 1; done

# lint = gofmt + go vet (root and ledger modules) + the repository's own
# invariant firewall (cmd/dynsumlint).
.PHONY: lint
lint:
	./scripts/lint.sh

# fuzz smokes the native fuzz targets over the validator stack, the
# open-world spec parser, the summary cache and the PAG text decoder for
# FUZZ_TIME each; the
# committed seed corpora replay in plain `make test`.
.PHONY: fuzz
fuzz:
	$(GO) test ./internal/check -fuzz FuzzFreezeValidate -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/check -fuzz FuzzDeltaApplyValidate -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/persist -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/persist/journal -run '^$$' -fuzz FuzzJournalScan -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/openworld -run '^$$' -fuzz FuzzSpecParse -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzSummaryCache -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/pag -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZ_TIME)

# faultcheck runs the query-lifecycle hardening suite: deterministic
# fault-injection crash-consistency sweeps (internal/enginetest), the
# cancellation / panic-quarantine / retry tests (internal/core), and the
# shared summary tier's equivalence and concurrency tests.
.PHONY: faultcheck
faultcheck:
	$(GO) test -run 'Fault|Cancel|Panic|Quarantine|Retry|Tier' -count=1 ./internal/enginetest/ ./internal/core/

# servecheck runs the serving core end to end: the full internal/serve
# suite under the race detector (oracle fidelity, overload shedding,
# watchdog, drain) plus the serve-layer chaos sweep.
.PHONY: servecheck
servecheck:
	$(GO) test -race -count=1 ./internal/serve/
	$(GO) test -run 'Chaos' -count=1 ./internal/serve/

# persistcheck runs the persistence layer end to end: the snapshot and
# journal unit suites (with the committed fuzz corpora replayed in the
# seed phase) and the crash-recovery sweep against never-crashed oracles.
.PHONY: persistcheck
persistcheck:
	$(GO) test -count=1 ./internal/persist/...
	$(GO) test -run 'Persist' -count=1 ./internal/enginetest/

# openworldcheck runs the open-world soundness surface: the spec parser
# and resolver suites, the blended-summary core tests, the benchgen
# deletion profiles, and the enginetest superset sweep (memo on/off ×
# condensed/base × deletion fractions against the full-body oracle).
.PHONY: openworldcheck
openworldcheck:
	$(GO) test -count=1 ./internal/openworld/
	$(GO) test -run 'OpenWorld|Bodyless|Spec|Native' -count=1 \
		./internal/core/ ./internal/pag/ ./internal/benchgen/ \
		./internal/enginetest/ ./internal/harness/ ./internal/mj/

.PHONY: bench
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCH_TIME) $(PKG)

# bench-baseline measures the trajectory workloads (closed-world suite
# plus the openworld/<bench>/{oracle,blended,specs} records) into
# BENCH_SNAPSHOT; bench-compare warns on regressions against the file's
# baseline section.
BENCH_SNAPSHOT ?= BENCH_10.json

.PHONY: bench-baseline
bench-baseline:
	./scripts/bench/baseline.sh $(BENCH_SNAPSHOT)

.PHONY: bench-compare
bench-compare:
	./scripts/bench/compare.sh $(BENCH_SNAPSHOT)

.PHONY: clean
clean:
	rm -rf bin
	$(GO) clean -testcache
