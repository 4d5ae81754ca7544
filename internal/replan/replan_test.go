package replan

import (
	"strings"
	"testing"

	"e3/internal/flame"
	"e3/internal/forecast"
	"e3/internal/slo"
	"e3/internal/telemetry"
)

const testWindows = 10

// TestReplanLoopConservation: the audit ledger and telemetry reconcile
// across every plan switch — no sample lost or double-counted when the
// pipeline is rebuilt mid-run.
func TestReplanLoopConservation(t *testing.T) {
	tr := telemetry.New()
	res, err := Run(DriftingDemo(testWindows, forecast.MethodARIMA, tr))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.OK() {
		t.Fatalf("conservation violations across plan switches:\n%s", strings.Join(res.Report.Violations, "\n"))
	}
	if len(res.Windows) != testWindows {
		t.Fatalf("%d window stats, want %d", len(res.Windows), testWindows)
	}
	total := 0
	for _, w := range res.Windows {
		total += w.Served + w.Violations + w.Dropped
	}
	arrived, completed, dropped := tr.Counts()
	if uint64(total) != arrived || arrived != completed+dropped {
		t.Errorf("per-window outcomes %d != tracer arrivals %d (completed %d + dropped %d)",
			total, arrived, completed, dropped)
	}
}

// TestReplanLoopAdapts: the drifting mix forces at least one real plan
// change, and every change is visible in the diff history.
func TestReplanLoopAdapts(t *testing.T) {
	res, err := Run(DriftingDemo(testWindows, forecast.MethodARIMA, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanChanges < 1 {
		t.Fatalf("no plan change across %d drifting windows", testWindows)
	}
	if res.Replans < res.PlanChanges {
		t.Errorf("replans %d < plan changes %d", res.Replans, res.PlanChanges)
	}
	changed := 0
	for _, d := range res.Diffs.Items() {
		if d.Changed {
			changed++
		}
	}
	if res.Diffs.Total() == res.Replans && changed != res.PlanChanges {
		t.Errorf("diff history records %d changes, result says %d", changed, res.PlanChanges)
	}
	if res.Provenance == nil || !res.Provenance.Accounted() {
		t.Error("last planning invocation's provenance missing or unaccounted")
	}
	if len(res.FinalPlan.Splits) == 0 {
		t.Error("no final plan")
	}
}

// TestReplanLoopDeterminism: same seed → byte-identical plan-diff
// sequence.
func TestReplanLoopDeterminism(t *testing.T) {
	render := func() string {
		res, err := Run(DriftingDemo(testWindows, forecast.MethodARIMA, nil))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, d := range res.Diffs.Items() {
			b.WriteString(d.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("same seed produced different plan-diff sequences:\n--- run 1:\n%s--- run 2:\n%s", a, b)
	}
	if a == "" {
		t.Fatal("empty diff sequence")
	}
}

// TestReplanARIMABeatsPersistence pins the acceptance criterion: on the
// same seed and drifting mix, the ARIMA forecaster's MAE is strictly
// below the persistence baseline's.
func TestReplanARIMABeatsPersistence(t *testing.T) {
	arima, err := Run(DriftingDemo(testWindows, forecast.MethodARIMA, nil))
	if err != nil {
		t.Fatal(err)
	}
	persist, err := Run(DriftingDemo(testWindows, forecast.MethodPersistence, nil))
	if err != nil {
		t.Fatal(err)
	}
	if arima.MeanForecastMAE >= persist.MeanForecastMAE {
		t.Errorf("ARIMA MAE %.5f not strictly below persistence %.5f",
			arima.MeanForecastMAE, persist.MeanForecastMAE)
	}
}

// TestReplanTelemetryTrack: replan instants land on the control-plane
// track as zero-duration spans carrying the window index.
func TestReplanTelemetryTrack(t *testing.T) {
	tr := telemetry.New()
	res, err := Run(DriftingDemo(6, forecast.MethodARIMA, tr))
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	lastAt := -1.0
	for _, s := range tr.Spans() {
		if s.Kind != telemetry.KindReplan {
			continue
		}
		got++
		if s.Track != "control-plane" {
			t.Errorf("replan span on track %q", s.Track)
		}
		if s.End != s.Start {
			t.Errorf("replan span has duration %v", s.Duration())
		}
		if s.Start < lastAt {
			t.Errorf("replan instants not monotone: %v after %v", s.Start, lastAt)
		}
		lastAt = s.Start
	}
	// Every successful replan that produced a diff also recorded a span.
	if got != res.Diffs.Total() {
		t.Errorf("%d replan spans, %d diffs recorded", got, res.Diffs.Total())
	}
}

// TestReplanObservedAllocsPerRequest holds the fully observed loop's
// allocation budget: the pooled batches, the per-window arrival callback
// and the ledger's arena keep it at most 1.5 allocations per request.
func TestReplanObservedAllocsPerRequest(t *testing.T) {
	var requests int
	allocs := testing.AllocsPerRun(1, func() {
		cfg := DriftingDemo(4, forecast.MethodARIMA, telemetry.NewRing(4096))
		cfg.Attr = slo.NewAttribution(slo.DefaultTopK)
		cfg.Flame = flame.NewProfiler(0)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Report.OK() {
			t.Fatalf("audit failed: %v", res.Report.Err())
		}
		requests = res.Report.Samples
	})
	perReq := allocs / float64(requests)
	if perReq > 1.5 {
		t.Fatalf("observed replan loop: %.2f allocs/request over %d requests, want ≤ 1.5", perReq, requests)
	}
	t.Logf("observed replan loop: %.2f allocs/request over %d requests", perReq, requests)
}

// TestReplanStaticMixHoldsPlan: with no drift and a loose threshold, the
// loop plans once and holds.
func TestReplanStaticMixHoldsPlan(t *testing.T) {
	cfg := DriftingDemo(5, forecast.MethodARIMA, nil)
	cfg.Workload = nil // constant Mix(0.8)
	cfg.DriftThreshold = 0.30
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Window 0 plans from the cold-start all-survive profile; window 1's
	// first real forecast forces one correction. After that the mix is
	// static and the plan must hold.
	if res.Replans > 2 {
		t.Errorf("static mix replanned %d times, want ≤ 2 (cold start + first observation)", res.Replans)
	}
	if !res.Report.OK() {
		t.Errorf("conservation violations on static mix: %v", res.Report.Violations)
	}
}
