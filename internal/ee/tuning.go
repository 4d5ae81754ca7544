package ee

import (
	"errors"
	"math/rand"
)

// This file implements the "sophisticated use-cases such as real-time ramp
// tuning" the paper's §3.4 defers to future work: given an accuracy
// budget, pick the loosest exit threshold — and therefore the highest
// goodput — whose estimated accuracy stays within budget.

// AccuracyModel estimates the accuracy of an EE model on a workload: the
// base (no-exit) accuracy minus a per-early-exit risk that grows with the
// threshold's looseness (a looser bound exits less-confident inputs).
type AccuracyModel struct {
	// BaseAccuracy is the full model's accuracy in percent.
	BaseAccuracy float64
	// ExitRisk maps a threshold to the expected accuracy cost (fraction)
	// per early-exited input.
	ExitRisk func(threshold float64) float64
}

// DefaultExitRisk is calibrated to the paper's observations: entropy 0.4
// costs ~1.7% accuracy when nearly all inputs exit early (§2.2), with
// sub-/super-linear cost below/above.
func DefaultExitRisk(threshold float64) float64 {
	switch {
	case threshold <= 0.3:
		return 0.006
	case threshold <= 0.4:
		return 0.017
	default:
		return 0.045
	}
}

// sampler is the minimal difficulty source (satisfied by workload.Dist,
// kept structural to avoid the import cycle).
type sampler interface {
	Sample(*rand.Rand) float64
}

// EarlyExitFraction estimates, by sampling, the fraction of a workload
// that leaves the model before the final classifier.
func EarlyExitFraction(m *EEModel, dist sampler, n int, seed int64) float64 {
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed))
	early := 0
	L := m.Base.NumLayers()
	for i := 0; i < n; i++ {
		if m.ExitLayerFor(dist.Sample(rng)) < L {
			early++
		}
	}
	return float64(early) / float64(n)
}

// Estimate returns the model's expected accuracy (percent) on a workload.
func (a AccuracyModel) Estimate(m *EEModel, dist sampler, threshold float64, n int, seed int64) float64 {
	frac := EarlyExitFraction(m, dist, n, seed)
	return a.BaseAccuracy - 100*frac*a.ExitRisk(threshold)
}

// TuneResult reports a tuning outcome.
type TuneResult struct {
	Threshold float64
	Model     *EEModel
	// Accuracy is the estimated accuracy at the chosen threshold.
	Accuracy float64
	// MeanExitLayer indicates the compute level the threshold buys.
	MeanExitLayer float64
}

// TuneEntropy finds the loosest entropy threshold in [lo, hi] whose
// estimated accuracy stays at or above minAccuracy. Looser thresholds
// exit earlier (monotonically lower accuracy, higher goodput), so a
// binary search applies. build must construct the EE model for a
// threshold; dist is the current workload.
func TuneEntropy(build func(threshold float64) *EEModel, acc AccuracyModel, dist sampler, minAccuracy, lo, hi float64, seed int64) (TuneResult, error) {
	if lo <= 0 || hi >= 1 || lo >= hi {
		return TuneResult{}, errors.New("ee: tune bounds must satisfy 0 < lo < hi < 1")
	}
	estimate := func(th float64) (float64, *EEModel) {
		m := build(th)
		return acc.Estimate(m, dist, th, 8000, seed), m
	}
	// The tightest bound must be acceptable, or no threshold is.
	accLo, mLo := estimate(lo)
	if accLo < minAccuracy {
		return TuneResult{}, errors.New("ee: accuracy budget unreachable even at the tightest threshold")
	}
	bestTh, bestM, bestAcc := lo, mLo, accLo
	l, h := lo, hi
	for i := 0; i < 20; i++ {
		mid := (l + h) / 2
		a, m := estimate(mid)
		if a >= minAccuracy {
			bestTh, bestM, bestAcc = mid, m, a
			l = mid
		} else {
			h = mid
		}
	}
	// Mean exit layer via the same sampling.
	rng := rand.New(rand.NewSource(seed))
	diffs := make([]float64, 4000)
	for i := range diffs {
		diffs[i] = dist.Sample(rng)
	}
	return TuneResult{
		Threshold:     bestTh,
		Model:         bestM,
		Accuracy:      bestAcc,
		MeanExitLayer: bestM.MeanExitLayer(diffs),
	}, nil
}
