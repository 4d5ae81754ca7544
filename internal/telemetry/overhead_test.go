// Telemetry overhead gate. This file lives in an external test package so
// it can drive the full traced demo through internal/experiments without
// an import cycle (experiments → serving → scheduler → telemetry).
//
// Wall-clock timing is deliberate and legal here: the invariant lint
// skips test files, and the quantity under test IS host cost — how much
// real time span recording adds to a simulated run. The gate is
// env-gated (E3_OVERHEAD_GATE=1, set by `make overhead`) so plain
// `go test ./...` stays timing-noise-free.
package telemetry_test

import (
	"fmt"
	"os"
	"testing"
	"time"

	"e3/internal/experiments"
	"e3/internal/flame"
	"e3/internal/scheduler"
	"e3/internal/slo"
	"e3/internal/telemetry"
)

// gateHorizon is virtual seconds of demo workload per timed run.
const gateHorizon = 10.0

// maxOverheadFrac bounds traced wall time at 1.5x untraced. Ring
// recording is O(1) per span with no allocation after the ring fills, so
// real regressions (per-span allocation, map churn in the hot path) blow
// well past this while scheduler jitter stays well under it.
const maxOverheadFrac = 0.5

// slackMS absorbs absolute timer noise on runs this short.
const slackMS = 10.0

func timeDemo(tb testing.TB, mk func() scheduler.Observers, rounds int) float64 {
	tb.Helper()
	best := 0.0
	for i := 0; i < rounds; i++ {
		obs := mk()
		start := time.Now()
		rep, stat, coll, _, err := experiments.RunDemo("pipeline", obs, gateHorizon)
		elapsed := time.Since(start).Seconds() * 1e3
		if err != nil {
			tb.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			tb.Fatalf("demo failed its audit: %v", err)
		}
		if obs.Flame != nil {
			// Profiling rides the gate only if it also stays correct: the
			// fold must reconcile exactly while being timed.
			if !stat.OK() {
				tb.Fatalf("flame reconcile residual %dns during overhead run", stat.Residual)
			}
		}
		if obs.Attr != nil {
			// The observed config also pays for a flight-recorder trigger,
			// so the gate bounds the full always-on observability stack.
			rec := &slo.Recorder{Spans: obs.Tracer, Ledger: coll.Audit, Attr: obs.Attr}
			if rec.Trigger(slo.TriggerEngineAbort, "overhead probe", gateHorizon) == nil {
				tb.Fatal("recorder produced no bundle")
			}
		}
		if i == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best
}

func TestTelemetryOverheadGate(t *testing.T) {
	if os.Getenv("E3_OVERHEAD_GATE") == "" {
		t.Skip("set E3_OVERHEAD_GATE=1 (make overhead) to run the wall-clock gate")
	}
	// Warm caches (first run pays lazy init for both configs alike).
	timeDemo(t, func() scheduler.Observers { return scheduler.Observers{} }, 1)

	off := timeDemo(t, func() scheduler.Observers { return scheduler.Observers{} }, 5)
	// The observed config is the full live-serving stack: ring tracer,
	// per-request attribution fold, an armed flight recorder, and the
	// virtual-time compute profiler.
	on := timeDemo(t, func() scheduler.Observers {
		return scheduler.Observers{
			Tracer: telemetry.NewRing(4096),
			Attr:   slo.NewAttribution(slo.DefaultTopK),
			Flame:  flame.NewProfiler(0),
		}
	}, 5)

	bound := off*(1+maxOverheadFrac) + slackMS
	overheadPct := 0.0
	if off > 0 {
		overheadPct = (on - off) / off * 100
	}
	t.Logf("untraced %.2fms, ring-traced %.2fms (%.1f%% overhead, bound %.2fms)", off, on, overheadPct, bound)
	if on > bound {
		t.Fatalf("telemetry overhead too high: untraced %.2fms, traced %.2fms exceeds bound %.2fms (%s)",
			off, on, bound, fmt.Sprintf("%.1f%% over untraced", overheadPct))
	}
}

func BenchmarkTracedDemoOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := experiments.RunDemo("pipeline", scheduler.Observers{}, gateHorizon); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTracedDemoRing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		obs := scheduler.Observers{Tracer: telemetry.NewRing(4096)}
		if _, _, _, _, err := experiments.RunDemo("pipeline", obs, gateHorizon); err != nil {
			b.Fatal(err)
		}
	}
}
