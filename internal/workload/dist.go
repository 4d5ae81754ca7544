// Package workload generates inference inputs. Each sample carries a latent
// difficulty in [0,1] — the only property of an input that matters to an
// early-exit serving system, because it determines how deep the input
// travels before a ramp's confidence test passes. Dataset presets encode
// the exit behaviour the paper reports for GLUE, ImageNet, WMT, SAMSum and
// BoolQ; mixes recreate the 80/20, 50/50 and 20/80 easy:hard workloads of
// §5.4.
package workload

import (
	"math"
	"math/rand"
)

// Dist draws difficulties in [0,1].
type Dist interface {
	// Sample draws one difficulty using the provided source.
	Sample(rng *rand.Rand) float64
	// Mean returns the analytic mean difficulty.
	Mean() float64
}

// Beta is a Beta(α,β) difficulty distribution. NewBeta is its only
// constructor: it computes the two gamma draws' constants once.
type Beta struct {
	alpha, beta float64
	x, y        gamma
}

// NewBeta builds Beta(α,β). Both shapes must be positive.
func NewBeta(alpha, beta float64) Beta {
	return Beta{alpha: alpha, beta: beta, x: newGamma(alpha), y: newGamma(beta)}
}

// Sample draws via two Marsaglia–Tsang gamma variates.
func (b Beta) Sample(rng *rand.Rand) float64 {
	x := b.x.sample(rng)
	y := b.y.sample(rng)
	if x+y == 0 {
		return 0.5
	}
	return clampUnit(x / (x + y))
}

// clampUnit clamps v into [1e-9, 1−1e-9], away from the exact endpoints
// so downstream logs and ratios are safe. It returns what
// math.Min(math.Max(v, 1e-9), 1-1e-9) does, bit for bit, with two
// comparisons on the common path; a NaN, of any payload, becomes
// math.NaN() as it does there.
func clampUnit(v float64) float64 {
	if v >= 1e-9 && v <= 1-1e-9 {
		return v
	}
	if v < 1e-9 {
		return 1e-9
	}
	if v > 1-1e-9 {
		return 1 - 1e-9
	}
	return math.NaN()
}

// Mean is α/(α+β).
func (b Beta) Mean() float64 { return b.alpha / (b.alpha + b.beta) }

// gamma holds the constants of a Gamma(shape, 1) draw by Marsaglia–Tsang:
// d = s − 1/3 and c = 1/√(9d) for s = shape, or, for shape < 1, for
// s = shape+1 with the boost trick's exponent boost = 1/shape.
type gamma struct {
	d, c, boost float64
}

func newGamma(shape float64) gamma {
	if shape <= 0 {
		panic("workload: gamma shape must be positive")
	}
	var g gamma
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) · U^{1/a}.
		g.boost = 1 / shape
		shape++
	}
	g.d = shape - 1.0/3.0
	g.c = 1.0 / math.Sqrt(9*g.d)
	return g
}

// sample draws one variate.
func (g gamma) sample(rng *rand.Rand) float64 {
	if g.boost != 0 {
		u := rng.Float64()
		return gamma{d: g.d, c: g.c}.sample(rng) * math.Pow(u, g.boost)
	}
	d, c := g.d, g.c
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Mixture draws from components with the given weights.
type Mixture struct {
	Components []Dist
	Weights    []float64
}

// Sample picks a component by weight, then samples it.
func (m Mixture) Sample(rng *rand.Rand) float64 {
	total := 0.0
	for _, w := range m.Weights {
		total += w
	}
	u := rng.Float64() * total
	acc := 0.0
	for i, w := range m.Weights {
		acc += w
		if u <= acc {
			return m.Components[i].Sample(rng)
		}
	}
	return m.Components[len(m.Components)-1].Sample(rng)
}

// Mean is the weight-averaged component mean.
func (m Mixture) Mean() float64 {
	total, sum := 0.0, 0.0
	for i, w := range m.Weights {
		total += w
		sum += w * m.Components[i].Mean()
	}
	if total == 0 {
		return 0
	}
	return sum / total
}

// Constant always returns the same difficulty; useful in tests.
type Constant float64

// Sample returns the constant.
func (c Constant) Sample(*rand.Rand) float64 { return float64(c) }

// Mean returns the constant.
func (c Constant) Mean() float64 { return float64(c) }

// Easy and Hard are the building blocks of the paper's workload mixes:
// easy inputs exit in the first third of a model, hard ones mostly run to
// completion.
var (
	easyDist Dist = NewBeta(1.8, 5.0)
	hardDist Dist = NewBeta(6.0, 1.6)
)

// Mix builds the §5.4 workloads: easyFrac of inputs drawn from the easy
// pool, the rest from the hard pool.
func Mix(easyFrac float64) Dist {
	if easyFrac < 0 || easyFrac > 1 {
		panic("workload: easyFrac outside [0,1]")
	}
	return Mixture{
		Components: []Dist{easyDist, hardDist},
		Weights:    []float64{easyFrac, 1 - easyFrac},
	}
}

// Dataset presets. Shapes are calibrated so that, under each model's
// default exit policy, the exit fractions match the paper's reports (see
// the calibration tests in the ee package).

// SST2 is the GLUE sentiment task: roughly half of inputs exit by the
// middle of BERT at entropy 0.4 (Figure 3).
func SST2() Dist { return NewBeta(2.1, 2.3) }

// QNLI is the GLUE QA-entailment task, slightly harder than SST-2.
func QNLI() Dist { return NewBeta(2.4, 2.1) }

// ImageNet drives the BranchyNet ResNet-50 experiments.
func ImageNet() Dist { return NewBeta(2.0, 2.6) }

// WMT models per-token difficulty for CALM translation: ~70% of tokens
// exit by decoder layer 2 of 8 (§5.1.3).
func WMT() Dist { return NewBeta(1.0, 4.2) }

// SAMSum models per-token difficulty for CALM summarization.
func SAMSum() Dist { return NewBeta(1.0, 4.0) }

// BoolQ models Llama-3.1-8B yes/no answering: ~50% of inputs exit by layer
// 25 of 32 (§5.1.3).
func BoolQ() Dist { return NewBeta(3.8, 1.25) }
