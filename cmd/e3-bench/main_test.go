package main

import (
	"os"
	"path/filepath"
	"slices"
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
	for name, modes := range modeFlags {
		if slices.Contains(modes, name) {
			continue // it starts a run of its own
		}
		v, ok := values[name]
		if !ok {
			t.Fatalf("no test value for -%s", name)
		}
		code, stderr := clitest.Run(t, 20*time.Second, "-"+name, v)
		want := "e3-bench: -" + name + " needs -" + modes[0] + " (it only configures that mode)\n"
		if code != 2 || stderr != want {
			t.Errorf("-%s %s: exit %d, stderr %q; want exit 2 and %q", name, v, code, stderr, want)
		}
	}
}

// TestRunFlagCombinations checks that runs which cannot combine, and bad
// counts, exit 2 with one line instead of dropping a run, and that the
// combinations a run reads still run and write their files.
func TestRunFlagCombinations(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-plan-bench", "a.json", "-fleet-bench", "b.json"}, "-fleet-bench cannot combine with -plan-bench"},
		{[]string{"-fleet", "2", "-windows", "2"}, "-windows cannot combine with -fleet"},
		{[]string{"-sim-bench", "x.json", "-audit"}, "-audit cannot combine with -sim-bench"},
		{[]string{"-audit", "-fig", "fig03"}, "-fig cannot combine with -audit"},
		{[]string{"-fig", "fig03", "fig07"}, "-fig cannot combine with experiment IDs as arguments (fig07)"},
		{[]string{"-list", "-windows", "2"}, "-windows cannot combine with -list"},
		{[]string{"-windows", "2", "-flame-out", "f.json", "-flame-runner", "serial"}, "-flame-runner cannot combine with -windows"},
		{[]string{"-trace-out", "t.json", "-flame-runner", "serial"}, "-flame-runner needs -flame-out (it only configures that mode)"},
		{[]string{"-fleet", "2", "-fleet-workers", "-3"}, "-fleet-workers must not be negative (got -3)"},
		{[]string{"-windows", "-2"}, "-windows -2 starts no run"},
		{[]string{"-fleet", "-2"}, "-fleet -2 starts no run"},
	} {
		code, stderr := clitest.Run(t, 20*time.Second, tc.args...)
		if want := "e3-bench: " + tc.want + "\n"; code != 2 || stderr != want {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and %q", tc.args, code, stderr, want)
		}
	}

	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	for _, tc := range []struct {
		args  []string
		files []string
		// gated runs time the observer overhead and exit 1, with their
		// report written, if it exceeds its bound.
		gated bool
	}{
		{args: []string{"-windows", "2", "-audit", "-bench-out", path("w.bench.json"), "-trace-out", path("w.trace.json"),
			"-flame-out", path("w.flame.json"), "-attr-out", path("w.attr.json"), "-bundle-on-failure", path("w.bundle.json"),
			"-slo-target", "0.9", "-burn-threshold", "2"},
			files: []string{"w.bench.json", "w.trace.json", "w.flame.json", "w.attr.json"}},
		{args: []string{"-trace-out", path("s.trace.json"), "-flame-out", path("s.flame.json"), "-flame-out", path("s.folded"),
			"-flame-runner", "serial"},
			files: []string{"s.trace.json", "s.flame.json", "s.folded"}},
		{args: []string{"-bench-out", path("d.bench.json"), "-trace-out", path("d.trace.json"), "-flame-out", path("d.flame.json")},
			files: []string{"d.bench.json", "d.trace.json", "d.flame.json"}, gated: true},
		{args: []string{"-fleet", "2", "-fleet-workers", "1"}},
	} {
		code, stderr := clitest.Run(t, time.Minute, tc.args...)
		if code != 0 && !(tc.gated && code == 1) {
			t.Errorf("%v: exit %d, stderr %q; want it to run", tc.args, code, stderr)
		}
		for _, f := range tc.files {
			if _, err := os.Stat(path(f)); err != nil {
				t.Errorf("%v: %v", tc.args, err)
			}
		}
	}
}
