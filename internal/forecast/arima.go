// Package forecast implements E3's online batch-profile estimation
// (§3.1): each layer's survival history is forecast one scheduling window
// ahead by an ARIMA(1,1,0) model, fitted by least squares to the history's
// first differences, and the sliding-window Estimator turns those
// per-layer forecasts into a clamped, monotone profile for the next
// window.
package forecast

import "math"

// forecastNext returns the one-step ARIMA(1,1,0) forecast of the history
// s, which holds at least minFitWindows values. It fits the differences
// w[t] = s[t+1] − s[t] as w[t] = c + φ·w[t−1] from the ridge-regularised
// 2×2 normal equations and forecasts s's next value as
// (c + φ·w_last) + s_last. ok is false when the system is singular (a
// pivot below 1e-14).
func forecastNext(s []float64) (next float64, ok bool) {
	// Normal equations [a00 a01; a01 a11]·[c φ] = [b0 b1], one regression
	// row (1, w[t−1]) → w[t] at a time.
	var a00, a01, a11, b0, b1 float64
	prev := s[1] - s[0]
	for t := 2; t < len(s); t++ {
		w := s[t] - s[t-1]
		a00++
		a01 += prev
		b0 += w
		a11 += prev * prev
		b1 += prev * w
		prev = w
	}
	// Ridge term scaled to the matrix magnitude, for numerical safety.
	ridge := 1e-8 * ((a00+a11)/2 + 1)
	a00 += ridge
	a11 += ridge

	// Gaussian elimination with partial pivoting: r0 is the pivot row.
	r0, r1 := [3]float64{a00, a01, b0}, [3]float64{a01, a11, b1}
	if math.Abs(r1[0]) > math.Abs(r0[0]) {
		r0, r1 = r1, r0
	}
	if math.Abs(r0[0]) < 1e-14 {
		return 0, false
	}
	f := r1[0] / r0[0]
	r1[1] -= f * r0[1]
	r1[2] -= f * r0[2]
	if math.Abs(r1[1]) < 1e-14 {
		return 0, false
	}
	phi := r1[2] / r1[1]
	c := (r0[2] - r0[1]*phi) / r0[0]
	return c + phi*prev + s[len(s)-1], true
}
