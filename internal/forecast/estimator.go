package forecast

import (
	"e3/internal/profile"
	"e3/internal/store"
)

// Method selects the forecasting algorithm.
type Method int

// Forecasting methods. Persistence exists as the ablation baseline
// (predict-last-value); ARIMA is E3's default (§3.1).
const (
	MethodARIMA Method = iota
	MethodPersistence
)

// The forecaster's fixed shape: ARIMA(1,1,0) — an autoregression on
// window-to-window differences, which tracks drifting exit rates and stays
// numerically stable on the short histories a 2-minute window produces —
// fitted to each layer's last historyWindows observations, once a layer
// has minFitWindows of them.
const (
	arP, arD, arQ  = 1, 1, 0
	historyWindows = 64
	minFitWindows  = arP + arD + arQ + 4
)

// Estimator is E3's online batch-profile estimator. The workload is cut
// into fixed scheduling windows (2 minutes in the paper); at each window
// boundary the scheduler Observes the window's measured survival profile,
// and Predict forecasts the next window's profile — one ARIMA series per
// layer, clamped to a valid monotone profile so mispredictions can never
// produce an impossible plan (the paper's "safety checks").
type Estimator struct {
	L      int
	Method Method

	// Stats optionally accumulates forecast-accuracy telemetry (residuals,
	// clamp/fallback counters). Nil (the default) records nothing at zero
	// cost.
	Stats *Stats

	// histories holds each layer's (0-based k-1) last historyWindows
	// survival observations; series is the copy of one that a fit reads.
	histories []store.Ring[float64]
	series    []float64
}

// NewEstimator builds an ARIMA estimator for an L-layer model.
func NewEstimator(l int) *Estimator {
	e := &Estimator{L: l, Method: MethodARIMA, histories: make([]store.Ring[float64], l)}
	for k := range e.histories {
		e.histories[k] = store.NewRing[float64](historyWindows)
	}
	return e
}

// Observe appends one window's measured survival profile. When Stats is
// attached, the observation also scores the pending Predict output.
func (e *Estimator) Observe(p profile.Batch) {
	e.Stats.observed(p)
	for k := 1; k <= e.L; k++ {
		e.histories[k-1].Push(p.At(k))
	}
}

// Predict forecasts the next window's survival profile. With no history it
// returns an all-survive profile (conservative: plans like a non-EE
// model); with short history it falls back to persistence.
//
// Each layer forecasts independently, so per-layer drift can produce
// survival that *increases* with depth — an impossible profile. The
// cross-layer safety check repairs that with a running-min clamp before
// the profile reaches the planner.
func (e *Estimator) Predict() profile.Batch {
	surv := make([]float64, e.L)
	for k := 0; k < e.L; k++ {
		surv[k] = e.predictLayer(&e.histories[k])
	}
	fixed := false
	for k := 1; k < e.L; k++ {
		if surv[k] > surv[k-1] {
			surv[k] = surv[k-1]
			fixed = true
		}
	}
	if fixed {
		e.Stats.count(monotoneFixes)
	}
	e.Stats.predicted(surv)
	return profile.NewBatch(surv)
}

func (e *Estimator) predictLayer(h *store.Ring[float64]) float64 {
	if h.Len() == 0 {
		return 1
	}
	e.Stats.count(forecasts)
	last := h.Last()
	if e.Method == MethodPersistence {
		return last
	}
	if h.Len() < minFitWindows {
		e.Stats.count(persistenceFallbacks)
		return last
	}
	e.series = h.AppendTo(e.series[:0])
	m, err := FitARIMA(e.series, arP, arD, arQ)
	if err != nil {
		e.Stats.count(fitFailures)
		return last
	}
	pred := m.Forecast(1)[0]
	// Safety clamps (§3.1): survival fractions live in [0,1], and exit
	// behaviour moves slowly between 2-minute windows, so a forecast far
	// from the last observation is a bad fit, not a real shift — bound it
	// to ±0.15 of the last value.
	raw := pred
	if pred > last+0.15 {
		pred = last + 0.15
	}
	if pred < last-0.15 {
		pred = last - 0.15
	}
	if pred < 0 {
		pred = 0
	}
	if pred > 1 {
		pred = 1
	}
	if pred != raw {
		e.Stats.count(clampHits)
	}
	return pred
}
