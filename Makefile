# One-command verification for the builder and CI. `make verify` runs the
# full recipe in dependency order: cheap structural checks first (format,
# build, vet, invariant lint), then the test suites, then the race detector over
# the event-loop packages, and finally the end-to-end lifecycle
# conservation audit.

GO ?= go

.PHONY: verify fmt build vet lint lintgate test race fuzz audit replan validate overhead bench plangate simgate slogate flamegate fleetgate

verify: fmt build vet lintgate test race audit replan validate overhead plangate simgate slogate flamegate fleetgate
	@echo "verify: all checks passed"

# Format gate: fails, listing the files, if gofmt would rewrite any Go
# source. The directories are named because .bench_build/ holds a module
# cache.
fmt:
	@unformatted="$$(gofmt -l cmd internal examples benchmark *.go)"; \
	test -z "$$unformatted" || { echo "gofmt -l:"; echo "$$unformatted"; exit 1; }

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# e3-lint enforces the simulator invariants (virtual time, seeded
# randomness, epsilon-safe deadline math, ledger pairing, determinism
# taint, hot-path allocation, error propagation, single-goroutine event
# loop). See README "Static invariants".
lint:
	$(GO) run ./cmd/e3-lint ./...

# Baseline-gated lint: fails on any finding not in lint.baseline.json
# (exit 1) and on any stale baseline entry whose violation was fixed
# (exit 3); exit 2 means the tree failed to load. This is the verify/CI
# entry point — `make lint` is the raw, baseline-free view.
lintgate:
	$(GO) run ./cmd/e3-lint -json -baseline lint.baseline.json ./... > /dev/null

test:
	$(GO) test ./...

# The batcher, runners, and collector share ledger state on the event
# loop; -race keeps the single-goroutine discipline honest at runtime
# where the eventloop analyzer can only check structure. A single-cluster
# run starts two goroutines beside its loop: workload's mint-ahead feed
# producer, and scheduler's stream consumer (Collector.Observe), which
# owns the ledger and the views while replan.Run and
# serving.AuditedOpenLoop stream their boundaries to it. metrics holds
# the collector's latency store. ee's compiled exit table is read by every
# fleet shard of one model at once, so it must be built eagerly.
race:
	$(GO) test -race ./internal/ee/ ./internal/sim/ ./internal/exec/ ./internal/serving/ ./internal/scheduler/ ./internal/optimizer/ ./internal/slo/ ./internal/flame/ ./internal/fleet/ ./internal/audit/ ./internal/replan/ ./internal/workload/ ./internal/metrics/

# Fuzz the ledger's online checks and digest against the full-walk
# oracles for 30 s. Only fuzzed operands reach the record's wide spill
# path; the seeded differential test under `make test` covers the rest.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzLedgerVerify -fuzztime 30s ./internal/audit/

# End-to-end conservation audit: exits nonzero on any lifecycle violation.
audit:
	$(GO) run ./cmd/e3-bench -audit

# Windowed replan loop conservation gate: the predict→plan→serve→observe
# loop must keep the sample ledger exact across every plan switch.
replan:
	$(GO) run ./cmd/e3-bench -windows 12 -audit

# Planner-vs-simulator gate: for every zoo model, the planned goodput
# must match the goodput measured on the simulated pipeline within
# e3-validate's tolerance (35%); exits nonzero otherwise.
validate:
	$(GO) run ./cmd/e3-validate

# Telemetry overhead gate: ring-traced demo runs must stay within a
# bounded wall-clock factor of untraced runs. Env-gated so plain
# `go test ./...` stays fast and timing-noise-free.
overhead:
	E3_OVERHEAD_GATE=1 $(GO) test ./internal/telemetry/ -run TestTelemetryOverheadGate -v

# Planner fast-path gates: the memoized search must beat the retained
# reference search by E3_PLAN_GATE_FACTOR (default 3x) on the paper
# cluster, and a stable forecast must serve replans from the plan cache.
# Env-gated like the overhead gate to keep plain `go test ./...` fast.
plangate:
	E3_PLAN_GATE=1 $(GO) test ./internal/optimizer/ -run TestPlannerPerfGate -v
	$(GO) test ./internal/replan/ -run TestPlanCacheStableForecastGate -v

# Data-plane fast-path gate: the full serving stack must sustain an
# events/sec floor on a paper-scale Poisson slice, and pooled vs unpooled
# runs must stay byte-identical. Env-gated like the other timing gates;
# the determinism half always runs under plain `go test ./...`.
# `e3-bench -sim-bench BENCH_PR6.json` writes the full measurement.
simgate:
	E3_SIM_GATE=1 $(GO) test ./internal/experiments/ -run 'TestSimGate|TestSimBenchPooledUnpooledByteIdentical' -v

# SLO attribution gate: per-request critical-path breakdowns must
# reconcile exactly (zero sum mismatches) against the audit ledger on the
# paper trace and across the drifting replan loop, and the same seed must
# produce a byte-identical flight-recorder bundle. Always on — no env
# gate — because the checks are deterministic and fast.
slogate:
	$(GO) test ./internal/slo/ -run 'TestSLOGate' -v

# Compute-profiler gate: the flame fold must account for every device's
# busy and idle time exactly (zero integer-nanosecond residual against
# the utilization ledger), the same seed must produce byte-identical
# folded output regardless of planner worker count, and the
# serial-vs-pipeline diff must be non-empty. Always on — deterministic
# virtual-time checks, no timing.
flamegate:
	$(GO) test ./internal/flame/ -run 'TestFlameGate|TestFlameAccountsLedgerExactlyAcrossSeedsAndRunners' -v

# Fleet tier gate: at every worker count the parallel sharded run must
# reproduce the serial reference byte-for-byte (per-shard ledger digests
# + router decision log), and aggregate events/s at 8 shards on
# min(8, cores) workers must beat 1 shard by a factor scaled to the cores
# present (>=4x on 8+ cores; median ratio of 9 alternating pairs; the
# timing half skips loudly on 1 core, where no speedup is physically
# possible). Env-gated like the other timing gates; the 20-seed
# determinism property tests always run under plain `go test ./...`.
# `e3-bench -fleet-bench BENCH_PR10.json` writes the full scaling curve.
fleetgate:
	E3_FLEET_GATE=1 $(GO) test ./internal/fleet/ -run TestFleetGate -v

# Planner, data-plane and observer microbenchmarks (cost-table build,
# reference vs memoized search, engine heap churn, timer reset, batcher
# flush, batcher arm/dispatch, split execution on the fly vs from a
# compiled table, traced runner path, one attributed request lifecycle,
# one flame execute/transfer/fuse round, one fleet routing epoch, fleet
# setup with one plan per distinct inventory (BenchmarkFleetNew), one
# streamed arrival minted on the loop vs ahead of it, exhaustive ledger
# recording and verification over 100k samples, one chunked busy span
# recorded (BenchmarkUtilizationAdd), p50 and p999 selected over 10k and
# 1M latencies with no sorted copy (BenchmarkLatencyQuantile)).
# `e3-bench -plan-bench BENCH_PR5.json` / `-sim-bench BENCH_PR6.json`
# write the same comparisons as JSON.
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/optimizer/ ./internal/exec/ ./internal/sim/ ./internal/serving/ ./internal/experiments/ ./internal/slo/ ./internal/flame/ ./internal/fleet/ ./internal/audit/ ./internal/metrics/
