package forecast

import (
	"e3/internal/profile"
)

// Method selects the forecasting algorithm.
type Method int

// Forecasting methods. Persistence exists as the ablation baseline
// (predict-last-value); ARIMA is E3's default (§3.1).
const (
	MethodARIMA Method = iota
	MethodPersistence
)

// Estimator is E3's online batch-profile estimator. The workload is cut
// into fixed scheduling windows (2 minutes in the paper); at each window
// boundary the scheduler Observes the window's measured survival profile,
// and Predict forecasts the next window's profile — one ARIMA series per
// layer, clamped to a valid monotone profile so mispredictions can never
// produce an impossible plan (the paper's "safety checks").
type Estimator struct {
	L       int
	Method  Method
	P, D, Q int
	// MaxHistory bounds the sliding window of retained observations.
	MaxHistory int

	// Stats optionally accumulates forecast-accuracy telemetry (residuals,
	// clamp/fallback counters). Nil (the default) records nothing at zero
	// cost.
	Stats *Stats

	histories [][]float64 // per layer (0-based k-1), survival series
}

// NewEstimator builds an estimator for an L-layer model with the default
// ARIMA(1,1,0) orders — an autoregression on window-to-window differences,
// which tracks drifting exit rates and stays numerically stable on the
// short histories a 2-minute window produces.
func NewEstimator(l int) *Estimator {
	e := &Estimator{L: l, Method: MethodARIMA, P: 1, D: 1, Q: 0, MaxHistory: 64}
	e.histories = make([][]float64, l)
	return e
}

// Observe appends one window's measured survival profile. When Stats is
// attached, the observation also scores the pending Predict output.
func (e *Estimator) Observe(p profile.Batch) {
	e.Stats.observed(p)
	for k := 1; k <= e.L; k++ {
		h := append(e.histories[k-1], p.At(k))
		if len(h) > e.MaxHistory {
			h = h[len(h)-e.MaxHistory:]
		}
		e.histories[k-1] = h
	}
}

// Observations reports how many windows have been observed.
func (e *Estimator) Observations() int {
	if e.L == 0 {
		return 0
	}
	return len(e.histories[0])
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
		surv[k] = e.predictLayer(e.histories[k])
	}
	fixed := false
	for k := 1; k < e.L; k++ {
		if surv[k] > surv[k-1] {
			surv[k] = surv[k-1]
			fixed = true
		}
	}
	if fixed {
		e.Stats.monotoneFixed()
	}
	e.Stats.predicted(surv)
	return profile.NewBatch(surv)
}

func (e *Estimator) predictLayer(h []float64) float64 {
	if len(h) == 0 {
		return 1
	}
	e.Stats.forecast()
	last := h[len(h)-1]
	if e.Method == MethodPersistence {
		return last
	}
	if len(h) < e.P+e.D+e.Q+4 {
		e.Stats.persistenceFallback()
		return last
	}
	m, err := FitARIMA(h, e.P, e.D, e.Q)
	if err != nil {
		e.Stats.fitFailure()
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
		e.Stats.clampHit()
	}
	return pred
}
