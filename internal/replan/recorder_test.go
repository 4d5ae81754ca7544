package replan

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"e3/internal/flame"
	"e3/internal/forecast"
	"e3/internal/slo"
	"e3/internal/telemetry"
	"e3/internal/workload"
)

// waitGoroutines fails unless the goroutine count falls back to before
// within a few seconds (an exiting goroutine may linger an instant after
// it was joined).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive Run, want %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecorderBurnBundleSeesWindowEnd: an SLO-burn trigger fires while
// the views run on the collector's stream consumer, so the loop must let
// the consumer catch up first. The bundle's ledger totals then equal the
// collector's own served + violations and dropped counts at that window's
// end, and its spans end with that window's burn instant.
func TestRecorderBurnBundleSeesWindowEnd(t *testing.T) {
	cfg := DriftingDemo(3, forecast.MethodARIMA, telemetry.New())
	cfg.Attr = slo.NewAttribution(slo.DefaultTopK)
	cfg.Flame = flame.NewProfiler(0)
	// Window 1 offers four times the demo's rate, so it sheds and burns.
	cfg.Workload = func(w int) (workload.Dist, float64) {
		if w == 1 {
			return workload.Mix(0.5), 8000
		}
		return workload.Mix(0.5), 2000
	}
	cfg.BurnThreshold = 0.5
	rec := &slo.Recorder{}
	cfg.Recorder = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := rec.Last()
	if b == nil || b.Trigger.Reason != slo.TriggerSLOBurn {
		t.Fatalf("want an %s bundle, got %+v", slo.TriggerSLOBurn, b)
	}
	var w int
	if _, err := fmt.Sscanf(b.Trigger.Detail, "window %d", &w); err != nil {
		t.Fatalf("trigger detail %q: %v", b.Trigger.Detail, err)
	}
	completed, dropped := 0, 0
	for _, ws := range res.Windows[:w+1] {
		completed += ws.Served + ws.Violations
		dropped += ws.Dropped
	}
	if dropped == 0 {
		t.Fatalf("window %d burned without a drop; the overload did not shed", w)
	}
	if l := b.Ledger; l == nil || l.Completed != completed || l.Dropped != dropped || l.Arrived != completed+dropped {
		t.Fatalf("bundle ledger %+v at window %d's end, want completed %d dropped %d arrived %d",
			b.Ledger, w, completed, dropped, completed+dropped)
	}
	last := b.Spans[len(b.Spans)-1]
	if last.Kind != telemetry.KindSLOBurn.String() || last.Batch != w {
		t.Fatalf("bundle's last span is %+v, want window %d's slo-burn instant", last, w)
	}
	if !res.Report.OK() {
		t.Fatalf("audit: %v", res.Report.Err())
	}
}

// TestRecorderAbortBundleJoinsStream: an event-limit abort mid-window
// triggers an engine-abort bundle, and neither the stream's consumer nor
// the feed's producer outlives Run.
func TestRecorderAbortBundleJoinsStream(t *testing.T) {
	defer func(l uint64) { eventLimit = l }(eventLimit)
	eventLimit = 9000
	cfg := DriftingDemo(2, forecast.MethodARIMA, telemetry.New())
	cfg.Attr = slo.NewAttribution(slo.DefaultTopK)
	cfg.Flame = flame.NewProfiler(0)
	cfg.WindowDur = 20
	rec := &slo.Recorder{}
	cfg.Recorder = rec
	before := runtime.NumGoroutine()
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "event limit") {
		t.Fatalf("Run under a 9000-event limit returned %v, want an event-limit abort", err)
	}
	b := rec.Last()
	if b == nil || b.Trigger.Reason != slo.TriggerEngineAbort {
		t.Fatalf("want an %s bundle, got %+v", slo.TriggerEngineAbort, b)
	}
	// Nothing is recorded after the abort, so the bundle must match the
	// ledger and the tracer as Run left them: every boundary recorded
	// before the failure was applied before the trigger read the views.
	arrived, completed, dropped := rec.Ledger.Totals()
	if l := b.Ledger; l == nil || l.Arrived == 0 || l.Arrived != arrived || l.Completed != completed || l.Dropped != dropped {
		t.Fatalf("abort bundle ledger %+v, ledger after Run arrived %d completed %d dropped %d",
			b.Ledger, arrived, completed, dropped)
	}
	if b.SpansTotal == 0 || b.SpansTotal != cfg.Tracer.Total() {
		t.Fatalf("abort bundle saw %d spans, the tracer recorded %d", b.SpansTotal, cfg.Tracer.Total())
	}
	waitGoroutines(t, before)
}
