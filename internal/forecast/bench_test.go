package forecast

import (
	"testing"

	"e3/internal/profile"
)

// BenchmarkFitARIMA measures one per-layer ARIMA(1,1,0) fit and forecast
// over a full history ring — the estimator runs one per layer per
// scheduling window.
func BenchmarkFitARIMA(b *testing.B) {
	series := ar1Series(0.6, 0.2, historyWindows, 0.05, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := forecastNext(series); !ok {
			b.Fatal("fit failed")
		}
	}
}

// BenchmarkEstimatorWindow measures a full observe+predict cycle for a
// 12-layer model — the §3.1 control-loop cost per window.
func BenchmarkEstimatorWindow(b *testing.B) {
	e := NewEstimator(12)
	surv := make([]float64, 12)
	for k := range surv {
		surv[k] = 1 - float64(k)*0.07
	}
	obs := profile.NewBatch(surv)
	for i := 0; i < 32; i++ {
		e.Observe(obs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Observe(obs)
		_ = e.Predict()
	}
}
