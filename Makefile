GO ?= go

# allocs pipes `go test` through awk; without pipefail a `go test` that exits
# non-zero without printing a FAIL or panic line (a go command error, such as
# a bad flag or package pattern) would be masked by awk's exit 0.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

# Oracle sweep controls: make oracle SEED=7 N=5000
# ORACLE_TESTS narrows the sweep to one topology tier, e.g.
#   make oracle ORACLE_TESTS='TestOracleCascadeSweep|TestOracleCascadeWireSweep'
SEED ?= 42
N ?= 1000
ORACLE_TESTS ?= TestOracleSweep|TestOracleWireSweep|TestOracleCascadeSweep|TestOracleCascadeWireSweep|TestOracleEdgeWriteSweep|TestOracleShardSweepFull|TestOracleResumeSweep|TestOracleAdaptiveSweep

.PHONY: check fmt vet build one-writer test allocs examples figures fingerprints oracle fuzz-smoke cover loc

## check: the full verification gate (format, vet, build, the one-writer
## gate, race-enabled tests — TestNoTestOnlyExports among them, the gate on
## exported code only tests reach — allocation gates and the examples).
check: fmt vet build one-writer test allocs examples

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

## one-writer: internal/persist is the one package that makes bytes durable
## (ROADMAP item 3). No other non-test file under internal/ opens a file for
## writing or fsyncs one; a second write-ahead log would have to do both.
one-writer:
	@found=$$(grep -rnE 'os\.(OpenFile|WriteFile|Create)\(|\.Sync\(\)' internal --include='*.go' \
		| grep -v -e '_test\.go:' -e '^internal/persist/'); \
	if [ -n "$$found" ]; then \
		echo "durable writes outside internal/persist:"; echo "$$found"; exit 1; \
	fi

test:
	$(GO) test -race ./...

## allocs: every allocation gate (the Test*Allocs* functions) once, without
## the race detector — it allocates on its own account, so under `make test`
## the gates hold but their counts are not the ones to quote — and the
## measured counts as one table. A failing gate fails the target.
allocs:
	@$(GO) test ./... -run 'Allocs' -count=1 -v | awk ' \
		/^=== RUN/ { test = $$3 } \
		/allocations/ { sub(/^ *[a-z_]+\.go:[0-9]+: /, ""); printf "%-34s %s\n", test, $$0 } \
		/^(--- FAIL|FAIL|panic:)/ { print; bad = 1 } \
		END { exit bad }'

## examples: run each examples/* program once; its output is printed only
## when it exits non-zero, which fails the target.
examples:
	@for d in examples/*/; do \
		if out=$$($(GO) run ./$$d 2>&1); then \
			echo "ok   $$d"; \
		else \
			echo "$$out"; echo "FAIL $$d"; exit 1; \
		fi; \
	done

## figures: rerun every paper figure and pinned count and rewrite
## internal/sim/testdata/figures.golden from them; `git diff` shows what moved.
## TestGoldenFigures (under `make test`) compares the file to the digit.
figures:
	$(GO) test ./internal/sim -run '^TestGoldenFigures$$' -count=1 -figures.update

## oracle: the long randomized model-checking sweep: every preset of the one
## oracle driver (flat, cascade and edge-write engine histories, their shard
## sweep, and fewer of the wire, three-tier wire, resume and adaptive
## histories). A divergence prints a shrunk history and a one-line replay
## command naming the test that failed.
oracle:
	$(GO) test ./internal/oracle -race -run '$(ORACLE_TESTS)' \
		-oracle.seed=$(SEED) -oracle.n=$(N) -v -timeout 30m

## fingerprints: rerun the deterministic oracle tests and rewrite
## internal/oracle/testdata/fingerprints.golden from them; `git diff` shows
## what moved. The tests (under `make test`) compare the file to the digit.
fingerprints:
	$(GO) test ./internal/oracle -count=1 -oracle.update

## fuzz-smoke: 30 seconds of native fuzzing per parser target — the wire
## decoders and the durable journal's recovery — and per differential check
## of the matching rule (NormValue and the in-place comparers).
fuzz-smoke:
	$(GO) test ./internal/ber -run '^$$' -fuzz FuzzParseTLV -fuzztime 30s
	$(GO) test ./internal/filter -run '^$$' -fuzz FuzzParseFilter -fuzztime 30s
	$(GO) test ./internal/dn -run '^$$' -fuzz FuzzParseDN -fuzztime 30s
	$(GO) test ./internal/entry -run '^$$' -fuzz FuzzNormValue -fuzztime 30s
	$(GO) test ./internal/entry -run '^$$' -fuzz FuzzEqualValues -fuzztime 30s
	$(GO) test ./internal/proto -run '^$$' -fuzz FuzzDecodeWriteRequest -fuzztime 30s
	$(GO) test ./internal/proto -run '^$$' -fuzz FuzzDecodeSearchEntry -fuzztime 30s
	$(GO) test ./internal/proto -run '^$$' -fuzz FuzzDecodeEntryChange -fuzztime 30s
	$(GO) test ./internal/proto -run '^$$' -fuzz FuzzDecodeFiltersWatch -fuzztime 30s
	$(GO) test ./internal/proto -run '^$$' -fuzz FuzzDecodeFiltersChanged -fuzztime 30s
	$(GO) test ./internal/proto -run '^$$' -fuzz '^FuzzDecodeEdgeWrite$$' -fuzztime 30s
	$(GO) test ./internal/proto -run '^$$' -fuzz FuzzDecodeEdgeWriteDone -fuzztime 30s
	$(GO) test ./internal/resync -run '^$$' -fuzz FuzzResumeToken -fuzztime 30s
	$(GO) test ./internal/persist -run '^$$' -fuzz FuzzJournalRecover -fuzztime 30s

## cover: per-function coverage summary.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 30

## loc: non-test Go lines per internal/ package, then the totals over the
## packages ROADMAP item 5 tracks (the sync surface and what selects for it)
## and over the ones items 8 and 11 do (durable state and its two callers),
## then non-test Go lines per cmd/ directory (items 13 and 16).
LOC_PKGS ?= ldapnet cascade replica resync selection tierctl supervisor
LOC_DURABLE ?= supervisor cascade persist
loc:
	@for d in internal/*/; do \
		printf '%-12s %6d\n' $$(basename $$d) $$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	done
	@for pkgs in "$(LOC_PKGS)" "$(LOC_DURABLE)"; do \
		printf '%-12s %6d  (%s)\n' total \
			$$(for p in $$pkgs; do find internal/$$p -name '*.go' ! -name '*_test.go' -exec cat {} +; done | wc -l) \
			"$$pkgs"; \
	done
	@for d in cmd/*/; do \
		printf '%-16s %6d\n' $${d%/} $$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	done
