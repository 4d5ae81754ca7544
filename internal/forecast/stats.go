package forecast

import "e3/internal/profile"

// statsWindows bounds the rolling residual history Stats retains.
const statsWindows = 64

// Stats accumulates forecast-accuracy telemetry for one Estimator:
// rolling per-layer residuals (predicted vs next observed survival),
// MAE/MAPE gauges over the retained window, the number of per-layer
// forecasts made, and counters for the safety machinery (clamp hits,
// persistence fallbacks, FitARIMA failures, cross-layer monotone fixes).
//
// Like audit.Ledger and telemetry.Tracer, a nil *Stats is valid and
// records nothing, so forecasting pays nothing when telemetry is off.
// Attach one via Estimator.Stats.
type Stats struct {
	layers int

	// lastPred holds the most recent Predict output awaiting its matching
	// observation.
	lastPred []float64
	hasPred  bool

	// absResid/pctResid are rolling rings of per-window mean residuals
	// (absolute and percentage) across layers; perLayerAbs accumulates the
	// same residuals per layer.
	absResid    []float64
	pctResid    []float64
	perLayerAbs [][]float64

	windows              int
	forecasts            int
	clampHits            int
	persistenceFallbacks int
	fitFailures          int
	monotoneFixes        int
}

// NewStats builds telemetry for an l-layer estimator.
func NewStats(l int) *Stats {
	return &Stats{layers: l, perLayerAbs: make([][]float64, l)}
}

// predicted records one Predict output (the actually-used, post-clamp
// forecast).
func (s *Stats) predicted(surv []float64) {
	if s == nil {
		return
	}
	s.lastPred = append(s.lastPred[:0], surv...)
	s.hasPred = true
}

// observed pairs one observed profile with the pending prediction and
// accumulates residuals. Observations with no pending prediction (e.g.
// the very first window) are ignored.
func (s *Stats) observed(p profile.Batch) {
	if s == nil || !s.hasPred || len(s.lastPred) != s.layers {
		return
	}
	s.hasPred = false
	absSum, pctSum := 0.0, 0.0
	pctN := 0
	for k := 1; k <= s.layers; k++ {
		obs := p.At(k)
		resid := s.lastPred[k-1] - obs
		if resid < 0 {
			resid = -resid
		}
		absSum += resid
		if obs > 0 {
			pctSum += resid / obs
			pctN++
		}
		s.perLayerAbs[k-1] = pushBounded(s.perLayerAbs[k-1], resid)
	}
	s.absResid = pushBounded(s.absResid, absSum/float64(s.layers))
	if pctN > 0 {
		s.pctResid = pushBounded(s.pctResid, pctSum/float64(pctN))
	}
	s.windows++
}

func pushBounded(h []float64, v float64) []float64 {
	h = append(h, v)
	if len(h) > statsWindows {
		h = h[len(h)-statsWindows:]
	}
	return h
}

func (s *Stats) forecast() {
	if s == nil {
		return
	}
	s.forecasts++
}

func (s *Stats) clampHit() {
	if s == nil {
		return
	}
	s.clampHits++
}

func (s *Stats) persistenceFallback() {
	if s == nil {
		return
	}
	s.persistenceFallbacks++
}

func (s *Stats) fitFailure() {
	if s == nil {
		return
	}
	s.fitFailures++
}

func (s *Stats) monotoneFixed() {
	if s == nil {
		return
	}
	s.monotoneFixes++
}

func mean(h []float64) float64 {
	if len(h) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range h {
		sum += v
	}
	return sum / float64(len(h))
}

// MAE is the mean absolute per-layer forecast error over the retained
// windows (0 with no scored windows).
func (s *Stats) MAE() float64 {
	if s == nil {
		return 0
	}
	return mean(s.absResid)
}

// MAPE is the mean absolute percentage error over the retained windows,
// as a fraction (0.1 == 10%). Layers whose observed survival is zero are
// excluded.
func (s *Stats) MAPE() float64 {
	if s == nil {
		return 0
	}
	return mean(s.pctResid)
}

// LastMAE is the most recent window's mean absolute error (0 with no
// scored windows).
func (s *Stats) LastMAE() float64 {
	if s == nil || len(s.absResid) == 0 {
		return 0
	}
	return s.absResid[len(s.absResid)-1]
}

// PerLayerMAE reports the rolling mean absolute error for each layer.
func (s *Stats) PerLayerMAE() []float64 {
	if s == nil {
		return nil
	}
	out := make([]float64, s.layers)
	for k := range s.perLayerAbs {
		out[k] = mean(s.perLayerAbs[k])
	}
	return out
}

// Windows reports how many prediction/observation pairs have been scored.
func (s *Stats) Windows() int {
	if s == nil {
		return 0
	}
	return s.windows
}

// Forecasts counts per-layer forecasts made from a non-empty history (the
// all-survive prior a layer gets before its first observation is not a
// forecast). PersistenceFallbacks and FitFailures count the ones of these
// that no fitted model produced.
func (s *Stats) Forecasts() int {
	if s == nil {
		return 0
	}
	return s.forecasts
}

// ClampHits counts per-layer forecasts bounded by a §3.1 safety clamp
// (±0.15 of the last observation or the [0,1] range).
func (s *Stats) ClampHits() int {
	if s == nil {
		return 0
	}
	return s.clampHits
}

// PersistenceFallbacks counts per-layer forecasts that fell back to
// predict-last-value because the history was too short for ARIMA.
func (s *Stats) PersistenceFallbacks() int {
	if s == nil {
		return 0
	}
	return s.persistenceFallbacks
}

// FitFailures counts FitARIMA errors (each also falls back to
// persistence).
func (s *Stats) FitFailures() int {
	if s == nil {
		return 0
	}
	return s.fitFailures
}

// MonotoneFixes counts Predict calls whose per-layer forecasts violated
// cross-layer monotonicity and were repaired by the running-min clamp.
func (s *Stats) MonotoneFixes() int {
	if s == nil {
		return 0
	}
	return s.monotoneFixes
}
