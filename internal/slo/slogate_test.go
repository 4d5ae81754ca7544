package slo_test

// The `make slogate` checks: (1) attribution reconciles exactly — zero
// sum mismatches — on the paper-scale traced demo and across the drifting
// replan loop; (2) the flight recorder is deterministic — the same seed
// produces a byte-identical bundle.

import (
	"bytes"
	"testing"

	"e3/internal/experiments"
	"e3/internal/forecast"
	"e3/internal/replan"
	"e3/internal/scheduler"
	"e3/internal/slo"
	"e3/internal/telemetry"
)

func TestSLOGateAttributionReconciles(t *testing.T) {
	// Paper-scale traced demo: the same bursty 10-virtual-second run the
	// conservation audit and telemetry reconcile gates use.
	attr := slo.NewAttribution(slo.DefaultTopK)
	rep, _, _, _, err := experiments.RunDemo("pipeline", scheduler.Observers{Attr: attr}, 10.0)
	if err != nil {
		t.Fatalf("traced demo: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("traced demo reconcile failed: %v", rep.Violations[0])
	}
	if attr.Mismatches() != 0 {
		t.Fatalf("traced demo: %d attribution mismatches (max residual %v)",
			attr.Mismatches(), attr.MaxResidual())
	}
	completed, _, attributed := attr.Counts()
	if completed == 0 || attributed != completed {
		t.Fatalf("traced demo: %d of %d completions attributed", attributed, completed)
	}
}

func TestSLOGateReplanLoopAttribution(t *testing.T) {
	// The drifting replan loop crosses plan changes, runner rebuilds, and
	// window drains; attribution must stay exact across all of them.
	cfg := replan.DriftingDemo(12, forecast.MethodARIMA, nil)
	attr := slo.NewAttribution(slo.DefaultTopK)
	cfg.Attr = attr
	res, err := replan.Run(cfg)
	if err != nil {
		t.Fatalf("replan loop: %v", err)
	}
	if !res.Report.OK() {
		t.Fatalf("replan reconcile failed: %v", res.Report.Violations[0])
	}
	if attr.Mismatches() != 0 || attr.Open() != 0 {
		t.Fatalf("replan loop: mismatches=%d open=%d", attr.Mismatches(), attr.Open())
	}
	if res.Budget.Windows() != 12 {
		t.Fatalf("budget observed %d windows, want 12", res.Budget.Windows())
	}
}

// slogateBundle runs the drifting demo with the full observability stack
// attached and returns a bundle triggered at a fixed instant.
func slogateBundle(t *testing.T) []byte {
	t.Helper()
	cfg := replan.DriftingDemo(8, forecast.MethodARIMA, telemetry.NewRing(512))
	cfg.Attr = slo.NewAttribution(slo.DefaultTopK)
	rec := &slo.Recorder{}
	cfg.Recorder = rec
	res, err := replan.Run(cfg)
	if err != nil {
		t.Fatalf("replan loop: %v", err)
	}
	if !res.Report.OK() {
		t.Fatalf("replan reconcile failed: %v", res.Report.Violations[0])
	}
	var buf bytes.Buffer
	if err := rec.Trigger("slogate", "determinism probe", 16.0).WriteJSON(&buf); err != nil {
		t.Fatalf("bundle encode: %v", err)
	}
	return buf.Bytes()
}

func TestSLOGateBundleDeterministic(t *testing.T) {
	b1 := slogateBundle(t)
	b2 := slogateBundle(t)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same seed produced different bundles (%d vs %d bytes)", len(b1), len(b2))
	}
	if len(b1) == 0 {
		t.Fatal("bundle is empty")
	}
}
