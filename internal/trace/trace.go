// Package trace generates request arrival processes: closed-loop (always a
// full batch waiting), open-loop Poisson/uniform, and a bursty
// Twitter-like trace reproducing the ArchiveTeam stream's shape the paper
// uses in §5.7 — extreme bursts separated by long quiet periods, amplified
// by scaling to a high average rate.
package trace

import (
	"math"
	"math/rand"
)

// Arrivals is a sorted list of request arrival times (seconds).
type Arrivals []float64

// Rate reports the average arrival rate over the horizon.
func (a Arrivals) Rate(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(len(a)) / horizon
}

// Uniform generates perfectly-paced arrivals at the given rate, the last
// one at the horizon when rate × horizon is whole.
func Uniform(rate, horizon float64) Arrivals {
	// Arrival i is i/rate from an integer index: accumulating `t += step`
	// drifts by one ulp per step and loses the arrival at the horizon.
	out := make(Arrivals, int(rate*horizon+1e-9))
	for i := range out {
		out[i] = float64(i+1) / rate
	}
	return out
}

// Poisson generates a homogeneous Poisson process at the given rate.
func Poisson(rate, horizon float64, seed int64) Arrivals {
	rng := rand.New(rand.NewSource(seed))
	var out Arrivals
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t > horizon {
			return out
		}
		out = append(out, t)
	}
}

// Stream yields arrival times one at a time, in order. Hour-scale traces
// at paper rates (9000 req/s × 3600 s ≈ 32M arrivals) need not be
// materialized as a slice — the open-loop driver pulls the next arrival
// as it consumes the previous one, keeping memory O(1) in trace length.
type Stream interface {
	// Next returns the next arrival time; ok is false once the horizon is
	// exhausted.
	Next() (at float64, ok bool)
}

// PoissonStream is the streaming form of Poisson: for equal (rate,
// horizon, seed) it yields exactly the arrival sequence Poisson returns,
// one draw at a time. Bursty cannot stream — its exact-rate thinning pass
// needs the full realization first.
type PoissonStream struct {
	rng           *rand.Rand
	rate, horizon float64
	t             float64
}

// NewPoissonStream starts a homogeneous Poisson arrival stream.
func NewPoissonStream(rate, horizon float64, seed int64) *PoissonStream {
	return &PoissonStream{rng: rand.New(rand.NewSource(seed)), rate: rate, horizon: horizon}
}

// Next implements Stream.
func (p *PoissonStream) Next() (float64, bool) {
	p.t += p.rng.ExpFloat64() / p.rate
	if p.t > p.horizon {
		return 0, false
	}
	return p.t, true
}

// SliceStream adapts a materialized Arrivals list to the Stream interface.
type SliceStream struct {
	arr Arrivals
	i   int
}

// NewSliceStream streams an existing arrival list.
func NewSliceStream(arr Arrivals) *SliceStream { return &SliceStream{arr: arr} }

// Next implements Stream.
func (s *SliceStream) Next() (float64, bool) {
	if s.i >= len(s.arr) {
		return 0, false
	}
	at := s.arr[s.i]
	s.i++
	return at, true
}

// BurstyConfig shapes the Twitter-like generator.
type BurstyConfig struct {
	// AvgRate is the target mean arrival rate after scaling (req/s).
	AvgRate float64
	// BurstRateMultiple is the within-burst rate relative to AvgRate.
	BurstRateMultiple float64
	// MeanBurstLen and MeanGapLen are exponential-mean durations (s) of
	// burst episodes and quiet gaps.
	MeanBurstLen, MeanGapLen float64
	// QuietRateFraction is the baseline rate during gaps relative to
	// AvgRate (long near-idle periods when small).
	QuietRateFraction float64
}

// DefaultBursty mimics the scaled Twitter trace: ~1000 req/s average with
// short violent bursts and long near-idle stretches (GPU util < 50%).
func DefaultBursty(avgRate float64) BurstyConfig {
	return BurstyConfig{
		AvgRate:           avgRate,
		BurstRateMultiple: 10,
		MeanBurstLen:      2.0,
		MeanGapLen:        18.0,
		QuietRateFraction: 0.01,
	}
}

// Bursty generates an alternating burst/gap modulated Poisson process and
// then rescales arrival times so the realized average rate matches
// AvgRate exactly (the paper scales the Twitter trace the same way).
func Bursty(cfg BurstyConfig, horizon float64, seed int64) Arrivals {
	rng := rand.New(rand.NewSource(seed))
	var out Arrivals
	t := 0.0
	inBurst := false
	for t < horizon {
		var segLen, rate float64
		if inBurst {
			segLen = rng.ExpFloat64() * cfg.MeanBurstLen
			rate = cfg.AvgRate * cfg.BurstRateMultiple
		} else {
			segLen = rng.ExpFloat64() * cfg.MeanGapLen
			rate = cfg.AvgRate * cfg.QuietRateFraction
		}
		end := math.Min(t+segLen, horizon)
		if rate > 0 {
			at := t
			for {
				at += rng.ExpFloat64() / rate
				if at > end {
					break
				}
				out = append(out, at)
			}
		}
		t = end
		inBurst = !inBurst
	}
	if len(out) == 0 {
		return out
	}
	// Rescale to hit the exact target average rate: thin or replicate by
	// adjusting the time axis would distort burst shape, so instead thin
	// probabilistically (if too many) or keep as-is when close.
	want := int(cfg.AvgRate * horizon)
	if want <= 0 || len(out) <= want {
		return out
	}
	keep := float64(want) / float64(len(out))
	thinned := out[:0]
	for _, a := range out {
		if rng.Float64() < keep {
			thinned = append(thinned, a)
		}
	}
	return thinned
}

// Burstiness reports the squared coefficient of variation of interarrival
// times (1 for Poisson, ≫1 for bursty traces).
func (a Arrivals) Burstiness() float64 {
	if len(a) < 3 {
		return 0
	}
	gaps := make([]float64, len(a)-1)
	mean := 0.0
	for i := 1; i < len(a); i++ {
		gaps[i-1] = a[i] - a[i-1]
		mean += gaps[i-1]
	}
	mean /= float64(len(gaps))
	if mean == 0 {
		return 0
	}
	varSum := 0.0
	for _, g := range gaps {
		d := g - mean
		varSum += d * d
	}
	varSum /= float64(len(gaps))
	return varSum / (mean * mean)
}
