# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check vuln build test race vet cover bench bench-full bench-ladder perf-smoke experiments examples clean

all: check

# The default verification gate: static checks plus the full test suite
# under the race detector, and a vulnerability scan when the scanner is
# installed.
check: vuln
	$(GO) vet ./...
	$(GO) test -race ./...

# govulncheck when available (CI installs it; locally it is optional:
# `go install golang.org/x/vuln/cmd/govulncheck@latest`).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping vulnerability scan"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

cover:
	$(GO) test -cover ./...

# Reduced-scale benchmark pass (one iteration per experiment).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Full-scale benchmark pass: reproduces the EXPERIMENTS.md workloads.
bench-full:
	REPRO_BENCH_SCALE=1 $(GO) test -bench=. -benchmem -benchtime=1x -timeout=2h .

# The routing benchmark (perfbench/, its own module): every workload of
# BENCHMARK.json with tracing on, printing the per-layer ladder (see
# perfbench/README.md). BENCH_pr*.json are read-only history of the
# per-change snapshots it replaced.
bench-ladder:
	for w in hub sharded churn; do bash perfbench/run.sh --workload $$w --trace 1 || exit 1; done

# In-process daemon + open-loop load generator with latency/success gates:
# the CI perf smoke. Tune the gates there, not here.
perf-smoke:
	$(GO) run ./cmd/loadgen -self -n 20000 -rps 150 -duration 15s -batch 8 \
	  -max-p99-ms 500 -min-success 0.99

# Regenerate every experiment table at full scale (EXPERIMENTS.md source).
experiments:
	$(GO) run ./cmd/smallworld -e all -scale 1 -seed 1

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/milgram
	$(GO) run ./examples/internet
	$(GO) run ./examples/trajectory
	$(GO) run ./examples/distributed

clean:
	$(GO) clean ./...
