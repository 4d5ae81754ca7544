# One-command verification for the builder and CI. `make verify` runs the
# full recipe in dependency order: cheap structural checks first (format,
# build, vet, invariant lint), then the test suites, then the race detector over
# the event-loop packages, and finally the end-to-end lifecycle
# conservation audit.

GO ?= go

.PHONY: verify fmt build vet lint lintgate test benchmark-check race fuzz audit replan validate examples serve-smoke overhead bench bench-smoke plangate simgate slogate flamegate fleetgate

verify: fmt build vet lintgate test benchmark-check race bench-smoke audit replan validate examples serve-smoke overhead plangate simgate slogate flamegate fleetgate
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

# benchmark/ is its own Go module, so build, vet and test above never
# compile it; a deleted or renamed name it uses would otherwise fail only
# in a benchmark run. -short skips its minute-long smoke run; the
# equivalence, spec and unit tests still run.
benchmark-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test -short ./...

# The batcher, runners, and collector share ledger state on the event
# loop; -race keeps the single-goroutine discipline honest at runtime
# where the eventloop analyzer can only check structure. A single-cluster
# run starts two goroutines beside its loop: workload's mint-ahead feed
# producer, and scheduler's stream consumer (Collector.Observe), which
# owns the ledger and the views while replan.Run and
# serving.AuditedOpenLoop stream their boundaries to it. metrics holds
# the collector's latency store. ee's compiled exit table is read by every
# fleet shard of one model at once, so it must be built eagerly. tasks is
# the worker pool the planner's search and the fleet's shards run on.
race:
	$(GO) test -race ./internal/ee/ ./internal/sim/ ./internal/exec/ ./internal/serving/ ./internal/scheduler/ ./internal/optimizer/ ./internal/slo/ ./internal/flame/ ./internal/fleet/ ./internal/audit/ ./internal/replan/ ./internal/workload/ ./internal/metrics/ ./internal/tasks/

# Fuzz the ledger's online checks and digest against the full-walk
# oracles for 30 s. Only fuzzed operands reach the record's wide spill
# path; the seeded differential test under `make test` covers the rest.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzLedgerVerify -fuzztime 30s ./internal/audit/

# Benchmark smoke: runs every benchmark under internal/ once, so a
# benchmark that no longer builds, panics or fails its own checks is
# caught without timing anything. The root BenchmarkFig* benchmarks stay
# out: each one regenerates a whole figure.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

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

# Example gate: builds every program under examples/, runs it, and diffs
# its stdout against the checked-in examples/<name>/expected.txt. The
# examples are deterministic, so any moved line is a behaviour change;
# regenerate an expected file only for an intended one.
examples:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	for ex in examples/*/; do \
		ex="$${ex%/}"; name="$$(basename "$$ex")"; echo "== $$name"; \
		$(GO) build -o "$$tmp/$$name" "./$$ex" && "$$tmp/$$name" > "$$tmp/$$name.out" && \
		diff -u "$$ex/expected.txt" "$$tmp/$$name.out" || exit 1; \
	done

# Server boot gate: builds e3-serve, boots it on 127.0.0.1 with the boot
# audit, a 2-window replan loop and a 2-replica fleet, waits for /healthz,
# then requires "ready":true from /v1/health and a conserved fleet on
# /metrics. The trap stops the server and removes the build on every path.
serve-smoke:
	@tmp="$$(mktemp -d)"; pid=; \
	trap 'test -z "$$pid" || kill "$$pid" 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	fail() { echo "serve-smoke: $$1"; cat "$$tmp/serve.log"; exit 1; }; \
	url=http://127.0.0.1:18931; \
	$(GO) build -o "$$tmp/e3-serve" ./cmd/e3-serve || exit 1; \
	"$$tmp/e3-serve" -addr 127.0.0.1:18931 -audit -replan-windows 2 -fleet 2 > "$$tmp/serve.log" 2>&1 & pid=$$!; \
	up=; for i in $$(seq 1 120); do \
		kill -0 "$$pid" 2>/dev/null || break; \
		curl -sf "$$url/healthz" > /dev/null && { up=1; break; }; sleep 0.5; \
	done; \
	test -n "$$up" || fail "e3-serve did not come up"; \
	curl -s "$$url/v1/health" | grep -q '"ready":true' || fail "/v1/health is not ready"; \
	curl -s "$$url/metrics" | grep -qx 'e3_fleet_conserved 1' || fail "/metrics lacks e3_fleet_conserved 1"; \
	echo "serve-smoke: e3-serve booted ready with a conserved fleet"

# Timing gates. Each runs the e3-bench report that measures its number
# into a temporary directory: the report prints its measured value and its
# bar, records both and the verdict in its payload, and exits 1 when the
# bar fails. The trap removes the report on every path.
#
# Observer overhead: the static demo's best of 5 runs under the full
# observed stack (span ring, attribution, flame profiler; each run's flame
# reconcile and a flight-recorder bundle checked after its timing) must
# stay within 1.5x its best of 5 untraced runs plus 10 ms.
overhead:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/e3-bench -bench-out "$$tmp/overhead.json"

# Planner: on the paper cluster at four splits, the memoized search must
# beat the retained reference search by 3x, and the widened search (20
# candidates, 5 splits) must take no longer than the reference; every
# grid case's winner must equal the reference's. A stable forecast must
# also serve replans from the plan cache (a deterministic test).
plangate:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/e3-bench -plan-bench "$$tmp/plan.json"
	$(GO) test ./internal/replan/ -run TestPlanCacheStableForecastGate -v

# Data plane: the full serving stack must sustain 1M events/s, with its
# sampled audit conserved, on the paper-scale 9000 req/s x 1 h trace
# (about 10 s of wall time). Pooled vs unpooled byte-identity is
# TestSimBenchPooledUnpooledByteIdentical, under make test.
simgate:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/e3-bench -sim-bench "$$tmp/sim.json"

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

# Fleet tier gate: at every point of the 1/2/4/8-shard curve the
# parallel run must reproduce the serial reference byte-for-byte
# (per-shard ledger digests + router decision log), and aggregate events/s
# at 8 shards on min(8, cores) workers must beat 1 shard by a factor
# scaled to the cores present (>=4x on 8+ cores, 2x on 4+, 1.2x on 2+;
# median ratio of 9 alternating pairs). On 1 core, where no speedup is
# possible, the scaling goes unmeasured and the digests alone gate.
fleetgate:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/e3-bench -fleet-bench "$$tmp/fleet.json"

# Planner, data-plane and observer microbenchmarks (cost-table build,
# reference vs memoized search, engine heap churn, timer reset, batcher
# flush, batcher arm/dispatch, split execution on the fly vs from a
# compiled table, traced runner path, one attributed request lifecycle,
# one flame execute/transfer/fuse round, one fleet routing epoch, fleet
# setup with one plan per distinct inventory (BenchmarkFleetNew), one
# streamed arrival minted on the loop vs ahead of it, exhaustive ledger
# recording over 100k samples (BenchmarkLedgerRecord: drive's clean and
# one-violation streams and the replan loop's 4/6/8-event mix, in ns/event
# and B/sample) and verification, one busy span recorded back to back and
# from two overlapping instances, both ~0 B/op since each span folds once
# no query can clip it (BenchmarkUtilizationAdd), p50 and p999 selected
# over 10k and 1M latencies with no sorted copy (BenchmarkLatencyQuantile)).
# `e3-bench -plan-bench FILE` / `-sim-bench FILE` write the same
# comparisons as JSON (make plangate / simgate).
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/optimizer/ ./internal/exec/ ./internal/sim/ ./internal/serving/ ./internal/experiments/ ./internal/slo/ ./internal/flame/ ./internal/fleet/ ./internal/audit/ ./internal/metrics/
