package forecast

import (
	"math"
	"testing"
)

// TestPredictEnforcesCrossLayerMonotone is the revert-failing regression
// for the cross-layer safety check. Per-layer ARIMA series forecast
// independently; a fast-falling layer crossing a flat deeper layer's
// level produces a raw forecast where survival *increases* with depth.
// Predict must repair that (running-min) before the profile reaches the
// planner, and record the repair.
func TestPredictEnforcesCrossLayerMonotone(t *testing.T) {
	e := NewEstimator(3)
	e.Stats = NewStats(3)
	// Layer 2 falls 0.02/window toward layer 3's flat 0.30; the histories
	// stay valid (monotone within each window) but layer 2's extrapolation
	// (~0.29) undershoots layer 3's (~0.30).
	for i := 0; i < 20; i++ {
		l2 := 0.69 - 0.02*float64(i) // 0.69 → 0.31
		e.Observe(profFrom(1, l2, 0.30))
	}
	p := e.Predict()
	if p.At(3) > p.At(2)+1e-12 {
		t.Errorf("non-monotone forecast reached the profile: At(2)=%v At(3)=%v", p.At(2), p.At(3))
	}
	if got := e.Stats.MonotoneFixes(); got == 0 {
		t.Error("crossing extrapolations produced no monotone fix — Predict is not repairing cross-layer violations")
	}
	// The recorded (scored) forecast is the repaired one, not the raw
	// per-layer output.
	lp := e.Stats.lastPred
	for k := 1; k < len(lp); k++ {
		if lp[k] > lp[k-1]+1e-12 {
			t.Errorf("stats recorded a non-monotone forecast: %v", lp)
		}
	}
}

func TestStatsResidualsAndGauges(t *testing.T) {
	e := NewEstimator(2)
	e.Stats = NewStats(2)
	e.Method = MethodPersistence
	e.Observe(profFrom(1, 0.5)) // no pending prediction: not scored
	if e.Stats.Windows() != 0 {
		t.Fatalf("scored %d windows before any prediction", e.Stats.Windows())
	}
	e.Predict()                 // predicts (1, 0.5)
	e.Observe(profFrom(1, 0.4)) // residual 0.1 on layer 2, 0 on layer 1
	if e.Stats.Windows() != 1 {
		t.Fatalf("windows = %d, want 1", e.Stats.Windows())
	}
	if got := e.Stats.MAE(); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("MAE = %v, want 0.05 (mean of 0 and 0.1)", got)
	}
	if got := e.Stats.LastMAE(); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("LastMAE = %v, want 0.05", got)
	}
	pl := e.Stats.PerLayerMAE()
	if math.Abs(pl[0]-0) > 1e-12 || math.Abs(pl[1]-0.1) > 1e-12 {
		t.Errorf("per-layer MAE = %v, want [0, 0.1]", pl)
	}
	// MAPE: layer 1 0/1, layer 2 0.1/0.4 = 0.25 → mean 0.125.
	if got := e.Stats.MAPE(); math.Abs(got-0.125) > 1e-12 {
		t.Errorf("MAPE = %v, want 0.125", got)
	}
	// A second unscored observation leaves gauges untouched.
	e.Observe(profFrom(1, 0.3))
	if e.Stats.Windows() != 1 {
		t.Errorf("observation without prediction scored: windows=%d", e.Stats.Windows())
	}
}

func TestStatsCounters(t *testing.T) {
	e := NewEstimator(2)
	e.Stats = NewStats(2)
	e.Predict() // no history: the all-survive prior, not a forecast
	e.Observe(profFrom(1, 0.5))
	e.Observe(profFrom(1, 0.5))
	e.Predict() // 2 observations < ARIMA minimum → persistence fallback
	if got := e.Stats.PersistenceFallbacks(); got != 2 {
		t.Errorf("short-history fallbacks = %d, want one per layer (2)", got)
	}
	if got := e.Stats.Forecasts(); got != 2 {
		t.Errorf("forecasts = %d, want 2 (the prior is not counted)", got)
	}
	// Oscillating series drive raw forecasts outside ±0.15 → clamp hits.
	e2 := NewEstimator(2)
	e2.Stats = NewStats(2)
	for _, v := range []float64{0.9, 0.1, 0.95, 0.05, 0.9, 0.1, 0.95, 0.05, 0.9, 0.1} {
		e2.Observe(profFrom(1, v))
	}
	e2.Predict()
	if e2.Stats.ClampHits() == 0 {
		t.Error("oscillating series produced no clamp hits")
	}
}

func TestStatsNilSafe(t *testing.T) {
	var s *Stats
	s.predicted([]float64{1})
	s.observed(profFrom(1))
	for c := range numCounters {
		s.count(c)
	}
	if s.MAE() != 0 || s.MAPE() != 0 || s.LastMAE() != 0 || s.PerLayerMAE() != nil ||
		s.Windows() != 0 || s.Forecasts() != 0 || s.ClampHits() != 0 || s.PersistenceFallbacks() != 0 ||
		s.FitFailures() != 0 || s.MonotoneFixes() != 0 {
		t.Error("nil Stats not inert")
	}
	// An estimator without Stats behaves identically.
	a, b := NewEstimator(2), NewEstimator(2)
	b.Stats = NewStats(2)
	for i := 0; i < 12; i++ {
		v := 0.3 + 0.03*float64(i)
		a.Observe(profFrom(1, v))
		b.Observe(profFrom(1, v))
	}
	pa, pb := a.Predict(), b.Predict()
	if pa.At(2) != pb.At(2) {
		t.Errorf("stats changed the forecast: %v vs %v", pa.At(2), pb.At(2))
	}
}

func TestStatsRollingWindowBound(t *testing.T) {
	e := NewEstimator(1)
	e.Stats = NewStats(1)
	e.Method = MethodPersistence
	for i := 0; i < 3*historyWindows; i++ {
		e.Predict()
		e.Observe(profFrom(1))
	}
	if e.Stats.absResid.Len() > historyWindows {
		t.Errorf("residual ring grew to %d, bound is %d", e.Stats.absResid.Len(), historyWindows)
	}
	if e.Stats.Windows() != 3*historyWindows {
		t.Errorf("windows = %d, want %d", e.Stats.Windows(), 3*historyWindows)
	}
}
