package forecast

import (
	"e3/internal/profile"
	"e3/internal/store"
)

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
	// lastPred holds the most recent Predict output awaiting its matching
	// observation.
	lastPred []float64
	hasPred  bool

	// absResid/pctResid are rolling rings of per-window mean residuals
	// (absolute and percentage) across the layers. Every scored window
	// pushes one absResid, so its push count is the number of windows
	// scored.
	absResid store.Ring[float64]
	pctResid store.Ring[float64]
	// layers is the estimator's layer count; a prediction of any other
	// length is not scored.
	layers int

	counts [numCounters]int
}

// counter indexes Stats.counts.
type counter int

const (
	forecasts counter = iota
	clampHits
	persistenceFallbacks
	fitFailures
	monotoneFixes
	numCounters
)

// NewStats builds telemetry for an l-layer estimator; it keeps the
// residuals of the last historyWindows scored windows.
func NewStats(l int) *Stats {
	return &Stats{
		absResid: store.NewRing[float64](historyWindows),
		pctResid: store.NewRing[float64](historyWindows),
		layers:   l,
	}
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
	for k := range s.layers {
		obs := p.At(k + 1)
		resid := s.lastPred[k] - obs
		if resid < 0 {
			resid = -resid
		}
		absSum += resid
		if obs > 0 {
			pctSum += resid / obs
			pctN++
		}
	}
	s.absResid.Push(absSum / float64(s.layers))
	if pctN > 0 {
		s.pctResid.Push(pctSum / float64(pctN))
	}
}

// count adds one to counter c.
func (s *Stats) count(c counter) {
	if s != nil {
		s.counts[c]++
	}
}

// get reads counter c (0 for a nil Stats).
func (s *Stats) get(c counter) int {
	if s == nil {
		return 0
	}
	return s.counts[c]
}

// mean averages the values h keeps, summing them oldest first.
func mean(h *store.Ring[float64]) float64 {
	if h.Len() == 0 {
		return 0
	}
	sum := 0.0
	for i := range h.Len() {
		sum += h.At(i)
	}
	return sum / float64(h.Len())
}

// MAE is the mean absolute per-layer forecast error over the retained
// windows (0 with no scored windows).
func (s *Stats) MAE() float64 {
	if s == nil {
		return 0
	}
	return mean(&s.absResid)
}

// MAPE is the mean absolute percentage error over the retained windows,
// as a fraction (0.1 == 10%). Layers whose observed survival is zero are
// excluded.
func (s *Stats) MAPE() float64 {
	if s == nil {
		return 0
	}
	return mean(&s.pctResid)
}

// LastMAE is the most recent window's mean absolute error (0 with no
// scored windows).
func (s *Stats) LastMAE() float64 {
	if s == nil || s.absResid.Len() == 0 {
		return 0
	}
	return s.absResid.Last()
}

// Windows reports how many prediction/observation pairs have been scored.
func (s *Stats) Windows() int {
	if s == nil {
		return 0
	}
	return s.absResid.Total()
}

// Forecasts counts per-layer forecasts made from a non-empty history (the
// all-survive prior a layer gets before its first observation is not a
// forecast). PersistenceFallbacks and FitFailures count the ones of these
// that no fitted model produced.
func (s *Stats) Forecasts() int { return s.get(forecasts) }

// ClampHits counts per-layer forecasts bounded by a §3.1 safety clamp
// (±0.15 of the last observation or the [0,1] range).
func (s *Stats) ClampHits() int { return s.get(clampHits) }

// PersistenceFallbacks counts per-layer forecasts that fell back to
// predict-last-value because the history was too short for ARIMA.
func (s *Stats) PersistenceFallbacks() int { return s.get(persistenceFallbacks) }

// FitFailures counts FitARIMA errors (each also falls back to
// persistence).
func (s *Stats) FitFailures() int { return s.get(fitFailures) }

// MonotoneFixes counts Predict calls whose per-layer forecasts violated
// cross-layer monotonicity and were repaired by the running-min clamp.
func (s *Stats) MonotoneFixes() int { return s.get(monotoneFixes) }
