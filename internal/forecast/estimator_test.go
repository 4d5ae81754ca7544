package forecast

import (
	"math"
	"testing"

	"e3/internal/profile"
)

func profFrom(surv ...float64) profile.Batch { return profile.NewBatch(surv) }

func TestEstimatorNoHistoryPredictsAllSurvive(t *testing.T) {
	e := NewEstimator(4)
	p := e.Predict()
	for k := 1; k <= 4; k++ {
		if p.At(k) != 1 {
			t.Fatalf("cold-start At(%d) = %v, want 1", k, p.At(k))
		}
	}
}

func TestEstimatorPersistenceFallbackOnShortHistory(t *testing.T) {
	e := NewEstimator(3)
	e.Observe(profFrom(1, 0.6, 0.3))
	e.Observe(profFrom(1, 0.5, 0.25))
	p := e.Predict() // 2 observations: too short for ARIMA → persistence
	if math.Abs(p.At(2)-0.5) > 1e-12 || math.Abs(p.At(3)-0.25) > 1e-12 {
		t.Errorf("persistence fallback = %v/%v, want 0.5/0.25", p.At(2), p.At(3))
	}
}

func TestEstimatorTracksStableWorkload(t *testing.T) {
	e := NewEstimator(3)
	for i := 0; i < 20; i++ {
		e.Observe(profFrom(1, 0.55, 0.30))
	}
	p := e.Predict()
	if math.Abs(p.At(2)-0.55) > 0.02 || math.Abs(p.At(3)-0.30) > 0.02 {
		t.Errorf("stable prediction = %v/%v, want 0.55/0.30", p.At(2), p.At(3))
	}
}

func TestEstimatorTracksDrift(t *testing.T) {
	// Survival drifting upward (workload getting harder): the ARIMA
	// forecast must move toward the recent values, not the stale mean.
	e := NewEstimator(2)
	for i := 0; i < 24; i++ {
		s := 0.3 + 0.02*float64(i) // 0.30 → 0.76
		e.Observe(profFrom(1, s))
	}
	p := e.Predict()
	if p.At(2) < 0.70 {
		t.Errorf("drift prediction = %v, want ≥ 0.70 (recent values ~0.76)", p.At(2))
	}
	if p.At(2) > 1 {
		t.Errorf("prediction escaped clamp: %v", p.At(2))
	}
}

func TestEstimatorClampsWildForecasts(t *testing.T) {
	// A violently oscillating series can produce out-of-range raw
	// forecasts; the estimator must clamp into [0,1] and keep the profile
	// monotone.
	e := NewEstimator(2)
	vals := []float64{0.9, 0.1, 0.95, 0.05, 0.9, 0.1, 0.95, 0.05, 0.9, 0.1, 0.95, 0.05}
	for _, v := range vals {
		e.Observe(profFrom(1, v))
	}
	p := e.Predict()
	if p.At(2) < 0 || p.At(2) > 1 || p.At(1) != 1 {
		t.Errorf("clamped prediction invalid: At(1)=%v At(2)=%v", p.At(1), p.At(2))
	}
}

func TestEstimatorWindowBound(t *testing.T) {
	e := NewEstimator(1)
	for i := 0; i < historyWindows+36; i++ {
		e.Observe(profFrom(1))
	}
	if got := e.histories[0].Len(); got != historyWindows {
		t.Errorf("history length = %d, want bounded to %d", got, historyWindows)
	}
}

func TestPersistenceMethod(t *testing.T) {
	e := NewEstimator(2)
	e.Method = MethodPersistence
	for i := 0; i < 30; i++ {
		e.Observe(profFrom(1, 0.2+0.02*float64(i)))
	}
	p := e.Predict()
	want := 0.2 + 0.02*29
	if math.Abs(p.At(2)-want) > 1e-12 {
		t.Errorf("persistence = %v, want exactly last value %v", p.At(2), want)
	}
}

func TestEstimatorAccuracyOnRealisticShift(t *testing.T) {
	// Simulate the §5.4 workload switch: survival at the mid-cut jumps
	// from 0.5 to 0.7. Within a few windows the estimator must be within
	// 0.05 of the new level (Figure 21's "closely matches reality").
	e := NewEstimator(2)
	for i := 0; i < 15; i++ {
		e.Observe(profFrom(1, 0.5))
	}
	for i := 0; i < 5; i++ {
		e.Observe(profFrom(1, 0.7))
	}
	p := e.Predict()
	if math.Abs(p.At(2)-0.7) > 0.05 {
		t.Errorf("post-shift prediction = %v, want within 0.05 of 0.7", p.At(2))
	}
}
