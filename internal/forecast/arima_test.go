package forecast

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func ar1Series(phi, c float64, n int, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	out[0] = c / (1 - phi)
	for i := 1; i < n; i++ {
		out[i] = c + phi*out[i-1] + noise*rng.NormFloat64()
	}
	return out
}

// ar1DiffSeries returns n values starting at x0 whose first differences
// follow w[t] = c + φ·w[t−1] + noise·N(0,1) from w[0] = w0.
func ar1DiffSeries(phi, c, x0, w0 float64, n int, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	out[0] = x0
	w := w0
	for i := 1; i < n; i++ {
		out[i] = out[i-1] + w
		w = c + phi*w + noise*rng.NormFloat64()
	}
	return out
}

// ramp returns n values from start in equal steps.
func ramp(start, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + step*float64(i)
	}
	return out
}

// TestForecastNextBits pins forecastNext bit for bit on fixed histories.
// The expected bits are the forecasts of the general Hannan–Rissanen
// ARIMA(p,d,q) fit this function replaced, at order (1,1,0) and horizon 1.
// Most histories end near zero survival, so the forecast keeps the low
// bits of c + φ·w_last that adding a large last value would round away.
// Each history is also fed through a two-layer Estimator, whose layer-2
// prediction must be that forecast after the §3.1 clamps.
func TestForecastNextBits(t *testing.T) {
	cases := []struct {
		name    string
		history []float64
		bits    uint64
		clamped bool
	}{
		{"six-window minimum", []float64{0.30, 0.21, 0.17, 0.11, 0.08, 0.05}, 0x3f820abcb6ce8c2c, false},
		{"full 64-window ring", ar1DiffSeries(0.3, -0.0035, 0.35, -0.005, historyWindows, 0.002, 6), 0x3fa6e17c9a42375e, false},
		{"constant", ramp(0.42, 0, 10), 0x3fdae147ae147ae1, false},
		{"linear trend", ramp(0.25, -0.02, 12), 0x3f847ae14bcd8a70, false},
		{"noisy AR(1) in differences", ar1DiffSeries(0.6, -0.004, 0.5, -0.01, 40, 0.01, 8), 0x3fb2c4395ff0dfa7, false},
		{"accelerating drop hits the clamp", []float64{0.6, 0.6, 0.6, 0.6, 0.55, 0.45, 0.25}, 0xbfc0665b12d96df8, true},
	}
	for _, tc := range cases {
		got, ok := forecastNext(tc.history)
		if !ok {
			t.Errorf("%s: fit failed", tc.name)
			continue
		}
		if math.Float64bits(got) != tc.bits {
			t.Errorf("%s: forecast %v (bits %#x), want %v (bits %#x)",
				tc.name, got, math.Float64bits(got), math.Float64frombits(tc.bits), tc.bits)
		}

		// Through the estimator; a full ring first displaces older windows.
		e := NewEstimator(2)
		e.Stats = NewStats(2)
		if len(tc.history) == historyWindows {
			for i := 0; i < 3; i++ {
				e.Observe(profFrom(1, 0.5))
			}
		}
		for _, v := range tc.history {
			e.Observe(profFrom(1, v))
		}
		last := tc.history[len(tc.history)-1]
		want := math.Max(0, math.Min(1, math.Max(last-0.15, math.Min(last+0.15, got))))
		if p := e.Predict().At(2); p != want {
			t.Errorf("%s: estimator predicts %v, want %v", tc.name, p, want)
		}
		if hit := e.Stats.ClampHits() > 0; hit != tc.clamped {
			t.Errorf("%s: clamp hit %v, want %v", tc.name, hit, tc.clamped)
		}
	}
}

// TestFitARRecoversCoefficient fits a long noisy AR(1)-in-differences
// series: the forecast lands within a fraction of one innovation of the
// true model's conditional mean, which needs φ and c recovered.
func TestFitARRecoversCoefficient(t *testing.T) {
	const phi, c, n = 0.7, 0.01, 400
	s := ar1DiffSeries(phi, c, 0.2, 0.05, n, 0.01, 1)
	want := s[n-1] + c + phi*(s[n-1]-s[n-2])
	got, ok := forecastNext(s)
	if !ok || math.Abs(got-want) > 0.003 {
		t.Errorf("forecast %v (ok %v), want %v ± 0.003", got, ok, want)
	}
}

// TestSolveKnownSystem fits a noise-free AR(1)-in-differences series,
// whose normal equations have the model's (c, φ) as their exact solution:
// the forecast is the model's own next value.
func TestSolveKnownSystem(t *testing.T) {
	const phi, c, n = 0.7, 0.01, 20
	s := ar1DiffSeries(phi, c, 0.2, 0.05, n, 0, 1)
	want := s[n-1] + c + phi*(s[n-1]-s[n-2])
	got, ok := forecastNext(s)
	if !ok || math.Abs(got-want) > 1e-6 {
		t.Errorf("forecast %v (ok %v), want %v", got, ok, want)
	}
}

func TestForecastConstantSeries(t *testing.T) {
	for _, v := range []float64{0, 0.42, 4.2, 1} {
		got, ok := forecastNext(ramp(v, 0, 50))
		if !ok || math.Abs(got-v) > 1e-9 {
			t.Errorf("constant %v: forecast %v (ok %v)", v, got, ok)
		}
	}
}

func TestForecastLinearTrendWithDifferencing(t *testing.T) {
	// y_t = 3 + 2t: every difference is 2, so the next value is 3 + 2·60.
	got, ok := forecastNext(ramp(3, 2, 60))
	if !ok || math.Abs(got-(3+2*60)) > 1e-6 {
		t.Errorf("trend forecast %v (ok %v), want %v", got, ok, 3+2*60)
	}
}

func TestForecastTracksDecayingSeries(t *testing.T) {
	// Exit rates ramping down: the forecast continues the trend below the
	// last value instead of jumping upward.
	series := []float64{0.9, 0.85, 0.8, 0.74, 0.7, 0.66, 0.61, 0.56, 0.52, 0.48, 0.44, 0.4}
	if f, ok := forecastNext(series); !ok || f >= 0.4 || f < 0.2 {
		t.Errorf("decaying-series forecast = %v (ok %v), want in [0.2, 0.4)", f, ok)
	}
}

// TestFitErrors pins where fitting starts: a layer with five observations
// falls back to persistence, and one with six is fitted.
func TestFitErrors(t *testing.T) {
	for _, n := range []int{5, 6} {
		e := NewEstimator(2)
		e.Stats = NewStats(2)
		for i := 0; i < n; i++ {
			e.Observe(profFrom(1, 0.9-0.05*float64(i)))
		}
		e.Predict()
		want := 0
		if n == 5 {
			want = 2 // one per layer
		}
		if got := e.Stats.PersistenceFallbacks(); got != want {
			t.Errorf("%d windows: %d persistence fallbacks, want %d", n, got, want)
		}
	}
}

// Property: forecasts of bounded stationary AR(1) series stay bounded.
func TestForecastBoundedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(rawPhi uint8, seed int64) bool {
		phi := float64(rawPhi%80) / 100 // [0, 0.8)
		v, ok := forecastNext(ar1Series(phi, 0.5, 120, 0.05, seed))
		return ok && !math.IsNaN(v) && math.Abs(v) <= 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
