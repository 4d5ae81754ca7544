package forecast

import (
	"math/rand"
	"testing"

	"e3/internal/profile"
)

// randomProfile draws one valid survival profile: monotone non-increasing
// from 1, values in [0,1].
func randomProfile(r *rand.Rand, l int) profile.Batch {
	surv := make([]float64, l)
	v := 1.0
	for k := 0; k < l; k++ {
		if k > 0 {
			v *= 1 - 0.4*r.Float64()
		}
		surv[k] = v
	}
	return profile.NewBatch(surv)
}

// TestPredictSafetyProperties exercises the §3.1 safety checks on
// arbitrary random histories: for both methods, Predict always returns
// survival in [0,1], monotone non-increasing across layers, and — once
// the history is long enough for ARIMA — within ±0.15 of the last
// observation per layer.
func TestPredictSafetyProperties(t *testing.T) {
	r := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < 200; trial++ {
		l := 2 + r.Intn(11)
		n := r.Intn(30)
		method := MethodARIMA
		if trial%2 == 1 {
			method = MethodPersistence
		}
		e := NewEstimator(l)
		e.Method = method
		e.Stats = NewStats(l)
		var last profile.Batch
		for i := 0; i < n; i++ {
			last = randomProfile(r, l)
			e.Observe(last)
		}
		p := e.Predict()
		prev := 1.0
		for k := 1; k <= l; k++ {
			v := p.At(k)
			if v < 0 || v > 1 {
				t.Fatalf("trial %d (method %d, n=%d): At(%d)=%v outside [0,1]", trial, method, n, k, v)
			}
			if v > prev+1e-12 {
				t.Fatalf("trial %d (method %d, n=%d): non-monotone At(%d)=%v > At(%d)=%v",
					trial, method, n, k, v, k-1, prev)
			}
			prev = v
			// Long enough history: every layer's forecast stays near its
			// last observation (persistence is exact; ARIMA is clamped).
			if n >= minFitWindows {
				if d := v - last.At(k); d > 0.15+1e-12 || d < -0.15-1e-12 {
					t.Fatalf("trial %d (method %d, n=%d): At(%d)=%v drifts %v from last obs %v",
						trial, method, n, k, v, d, last.At(k))
				}
			}
		}
	}
}
