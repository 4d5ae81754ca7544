package main

import (
	"testing"

	"e3/internal/forecast"
	"e3/internal/replan"
)

// TestForecastVerdict runs the drifting demo under both forecasters: at 4
// windows every ARIMA forecast falls back to persistence (too little
// history to fit), so equal MAEs must read as inconclusive, not as a
// loss; at 12 windows ARIMA fits and the comparison stands.
func TestForecastVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the replan loop four times")
	}
	for _, tc := range []struct {
		windows      int
		inconclusive bool
	}{{4, true}, {12, false}} {
		arima, err := replan.Run(replan.DriftingDemo(tc.windows, forecast.MethodARIMA, nil))
		if err != nil {
			t.Fatal(err)
		}
		persistence, err := replan.Run(replan.DriftingDemo(tc.windows, forecast.MethodPersistence, nil))
		if err != nil {
			t.Fatal(err)
		}
		layers := replan.DriftingDemo(tc.windows, forecast.MethodARIMA, nil).Model.Base.NumLayers()
		want := (tc.windows - 1) * layers
		for _, c := range []forecastCounts{countForecasts(arima.Forecast), countForecasts(persistence.Forecast)} {
			if c.Forecasts != want {
				t.Errorf("%d windows: %d per-layer forecasts, want %d", tc.windows, c.Forecasts, want)
			}
		}
		verdict, beats := forecastVerdict(arima.Forecast, persistence.Forecast)
		if got := beats == nil; got != tc.inconclusive {
			t.Errorf("%d windows: verdict %q, want inconclusive=%v", tc.windows, verdict, tc.inconclusive)
		}
		if !tc.inconclusive && !*beats {
			t.Errorf("%d windows: %s (MAE %.5f vs %.5f)", tc.windows, verdict,
				arima.MeanForecastMAE, persistence.MeanForecastMAE)
		}
	}
}
