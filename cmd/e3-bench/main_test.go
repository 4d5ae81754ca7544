package main

import (
	"testing"
	"time"

	"e3/internal/cliutil/clitest"
	"e3/internal/forecast"
	"e3/internal/replan"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

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

// TestModeFlagsNeedTheirMode gives each mode-only flag without its mode:
// every one must exit 2 with a one-line message instead of being ignored.
func TestModeFlagsNeedTheirMode(t *testing.T) {
	values := map[string]string{
		"attr-out": "attr.json", "bundle-on-failure": "bundle.json", "slo-target": "0.9",
		"burn-threshold": "2", "fleet-workers": "2", "flame-runner": "serial",
	}
	for name, mode := range modeFlags {
		v, ok := values[name]
		if !ok {
			t.Fatalf("no test value for -%s", name)
		}
		code, stderr := clitest.Run(t, 20*time.Second, "-"+name, v)
		want := "e3-bench: -" + name + " needs -" + mode + " (it only configures that mode)\n"
		if code != 2 || stderr != want {
			t.Errorf("-%s %s: exit %d, stderr %q; want exit 2 and %q", name, v, code, stderr, want)
		}
	}
}
