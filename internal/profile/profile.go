// Package profile represents batch-size profiles: how a fresh batch decays
// through an EE model's layers as samples exit. Profiles come from
// measurement (Monte-Carlo or live observation) or from the ARIMA
// forecaster, and feed E3's optimizer (§3.1–3.2).
package profile

import (
	"fmt"
	"math/rand"

	"e3/internal/ee"
)

// Batch is a survival profile over an L-layer model. Survival[k] (1-based,
// k ∈ [1, L]) is the expected fraction of a fresh batch still active when
// layer k begins; Survival[1] == 1 by construction.
type Batch struct {
	L        int
	Survival []float64 // index 0 unused; [1..L]
}

// NewBatch builds a profile from a survival curve of length L (entering
// layers 1..L), normalizing and clamping it to a valid shape.
func NewBatch(survival []float64) Batch {
	l := len(survival)
	b := Batch{L: l, Survival: make([]float64, l+1)}
	copy(b.Survival[1:], survival)
	b.clamp()
	return b
}

// clamp enforces Survival[1]=1, values in [0,1], monotone non-increasing.
func (b *Batch) clamp() {
	if b.L == 0 {
		return
	}
	b.Survival[1] = 1
	prev := 1.0
	for k := 2; k <= b.L; k++ {
		v := b.Survival[k]
		if v > prev {
			v = prev
		}
		if v < 0 {
			v = 0
		}
		b.Survival[k] = v
		prev = v
	}
}

// FromDifficulties builds the exact profile of a concrete set of inputs.
func FromDifficulties(m *ee.EEModel, diffs []float64) Batch {
	counts := make([]int, m.Base.NumLayers()+1)
	for _, d := range diffs {
		counts[m.ExitLayerFor(d)]++
	}
	return FromExitCounts(counts)
}

// FromExitCounts builds the profile of an exit histogram over an L-layer
// model, L = len(counts)−1: counts[k] samples exited after layer k
// (1-based). Every sample enters layer 1; an empty histogram survives
// everywhere.
func FromExitCounts(counts []int) Batch {
	total := 0
	for _, n := range counts {
		total += n
	}
	surv := make([]float64, len(counts)-1)
	if total == 0 {
		for k := range surv {
			surv[k] = 1
		}
		return NewBatch(surv)
	}
	alive := total
	for k := range surv {
		surv[k] = float64(alive) / float64(total)
		alive -= counts[k+1]
	}
	return NewBatch(surv)
}

// Offline is §3.1's offline profile of a workload: its survival estimated
// from a fixed draw of 8000 difficulties (seed 1), which plans before any
// traffic has been observed.
func Offline(m *ee.EEModel, dist interface {
	Sample(*rand.Rand) float64
}) Batch {
	return FromDist(m, dist, 8000, 1)
}

// FromDist estimates the profile of a difficulty distribution by drawing n
// samples with a fixed seed.
func FromDist(m *ee.EEModel, dist interface {
	Sample(*rand.Rand) float64
}, n int, seed int64) Batch {
	rng := rand.New(rand.NewSource(seed))
	diffs := make([]float64, n)
	for i := range diffs {
		diffs[i] = dist.Sample(rng)
	}
	return FromDifficulties(m, diffs)
}

// At returns the survival fraction entering layer k (1-based). Layers past
// the end return 0.
func (b Batch) At(k int) float64 {
	if k < 1 {
		return 1
	}
	if k > b.L {
		return 0
	}
	return b.Survival[k]
}

// After returns the survival fraction after layer k finishes and its ramp
// (if any) has fired — i.e. entering layer k+1.
func (b Batch) After(k int) float64 { return b.At(k + 1) }

// BatchAt scales the profile to a concrete input batch size.
func (b Batch) BatchAt(k, b0 int) float64 { return b.At(k) * float64(b0) }

// MaxAbsDiff is the largest pointwise survival difference between two
// profiles over the same model — the drift metric the scheduler monitors
// to trigger re-planning (§3.1).
func (b Batch) MaxAbsDiff(other Batch) float64 {
	if b.L != other.L {
		return 1
	}
	max := 0.0
	for k := 1; k <= b.L; k++ {
		d := b.Survival[k] - other.Survival[k]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// WithError returns a copy whose post-entry survival values are scaled by
// (1+err) and re-clamped; the Figure 22 sensitivity experiment injects
// prediction error this way.
func (b Batch) WithError(err float64) Batch {
	surv := make([]float64, b.L)
	for k := 1; k <= b.L; k++ {
		surv[k-1] = b.Survival[k] * (1 + err)
	}
	return NewBatch(surv)
}

// String renders the survival curve compactly for logs.
func (b Batch) String() string {
	out := "profile["
	for k := 1; k <= b.L; k++ {
		if k > 1 {
			out += " "
		}
		out += fmt.Sprintf("%.2f", b.Survival[k])
	}
	return out + "]"
}
