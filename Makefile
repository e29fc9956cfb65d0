# Convenience targets for the renaming reproduction.

GO ?= go

.PHONY: all build test test-short race cover bench bench-check ci mem-smoke linkcheck experiments experiments-quick figures examples clean

all: build test

# What .github/workflows/ci.yml runs on every push/PR (staticcheck runs
# there too, when installed locally: go install honnef.co/go/tools/cmd/staticcheck@latest).
ci:
	$(GO) vet ./...
	if command -v staticcheck >/dev/null; then staticcheck ./...; else echo "staticcheck not installed, skipping"; fi
	$(GO) build ./...
	$(GO) test ./... -short -race
	$(GO) test -run '^$$' -bench StepRound -benchtime 1x ./internal/sim
	$(GO) test -run '^$$' -bench 'MidSendCompaction|LazyRandDraw' -benchtime 1x ./internal/sim
	$(GO) test -run '^$$' -bench MidSendFilter -benchtime 1x ./internal/adversary
	$(GO) test -run '^$$' -bench ByzStepRound -benchtime 1x .
	$(GO) test -run '^$$' -bench CrashStepRound -benchtime 1x .
	$(GO) test -run '^$$' -bench CrashSetup -benchtime 1x .
	$(GO) test -run '^$$' -bench ChurnEpoch -benchtime 1x .
	$(GO) run ./cmd/campaign -algo crash -n 64 -execs 50 -seed 1
	$(GO) run ./cmd/campaign -search -algo crash -n 64 -budget-execs 48 -seed 1 -objective envelope
	$(GO) run ./cmd/renamed -n 256 -epochs 40 -faults 16 -seed 2
	$(GO) run ./cmd/linkcheck

# The CI mem-smoke job: whole-run crash at n=2^16 under GOMEMLIMIT with
# a live-heap ceiling assert, plus the per-epoch allocation gate for the
# churn service at Capacity=2^20 (see docs/MEMORY.md).
mem-smoke:
	RENAMING_MEMSMOKE=1 GOMEMLIMIT=6GiB $(GO) test -run MemorySmoke -v -timeout 20m .

linkcheck:
	$(GO) run ./cmd/linkcheck

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# -short everywhere, plus the full (non-short) suites for the engine,
# the service and the crash core — the shared-aggregate delivery path,
# the epoch machinery and the committee aggregate members share across
# workers are exactly where a data race would hide.
race:
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/sim ./internal/service ./internal/core

cover:
	$(GO) test -short -cover ./...

# Full benchmark sweep. The raw text passes through unchanged; every
# Byzantine-path benchmark additionally lands in BENCH_byz.json, every
# crash-path benchmark in BENCH_crash.json, the churn-service
# benchmarks in BENCH_churn.json, and the simulation substrate's
# (engine, node coins, mid-send filters: every benchmark of internal/sim
# and internal/adversary) in BENCH_sim.json, the structured before/after
# ledgers (cmd/benchjson chains: each stage records its matches and
# passes the text through).
SIM_PKGS = renaming/internal/sim,renaming/internal/adversary

bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./... \
		| $(GO) run ./cmd/benchjson -match Byz -out BENCH_byz.json \
		| $(GO) run ./cmd/benchjson -match Crash -out BENCH_crash.json \
		| $(GO) run ./cmd/benchjson -match Churn -out BENCH_churn.json \
		| $(GO) run ./cmd/benchjson -pkg $(SIM_PKGS) -out BENCH_sim.json

# Re-run the sweep into throwaway ledgers and gate them against the
# committed BENCH_*.json baselines: ns/op and peakHeap-MB may not
# regress beyond 25% (benchjson -compare exits non-zero), so the
# ledgers are an enforceable contract rather than write-only artifacts.
bench-check:
	$(GO) test -run '^$$' -bench=. -benchmem ./... \
		| $(GO) run ./cmd/benchjson -match Byz -out .bench_check_byz.json \
		| $(GO) run ./cmd/benchjson -match Crash -out .bench_check_crash.json \
		| $(GO) run ./cmd/benchjson -match Churn -out .bench_check_churn.json \
		| $(GO) run ./cmd/benchjson -pkg $(SIM_PKGS) -out .bench_check_sim.json \
		> /dev/null
	$(GO) run ./cmd/benchjson -tol 0.25 -compare BENCH_byz.json .bench_check_byz.json
	$(GO) run ./cmd/benchjson -tol 0.25 -compare BENCH_crash.json .bench_check_crash.json
	$(GO) run ./cmd/benchjson -tol 0.25 -compare BENCH_churn.json .bench_check_churn.json
	$(GO) run ./cmd/benchjson -tol 0.25 -compare BENCH_sim.json .bench_check_sim.json
	rm -f .bench_check_byz.json .bench_check_crash.json .bench_check_churn.json .bench_check_sim.json

# Regenerate every table/figure of the reproduction (minutes).
experiments:
	$(GO) run ./cmd/benchtables -svgdir docs/figures | tee bench_tables_full.txt

experiments-quick:
	$(GO) run ./cmd/benchtables -quick

figures:
	$(GO) run ./cmd/benchtables -svgdir docs/figures > /dev/null

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/cryptonet
	$(GO) run ./examples/faultsweep
	$(GO) run ./examples/byzantine
	$(GO) run ./examples/adaptive

clean:
	$(GO) clean ./...
