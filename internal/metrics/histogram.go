package metrics

import (
	"fmt"
	"math"
)

// Histogram is a bounded streaming histogram over fixed log-spaced
// buckets. Unlike LatencyRecorder it retains O(buckets) state regardless
// of how many values it observes, so million-request runs can feed a live
// /metrics endpoint without retaining every sample twice. Quantiles are
// approximate: the returned value lies inside the bucket holding the true
// quantile, so the relative error is bounded by one bucket's growth
// factor.
type Histogram struct {
	// bounds[i] is the inclusive upper bound of bucket i, ascending;
	// values above bounds[len-1] land in the overflow bucket.
	bounds []float64
	// counts has len(bounds)+1 entries; the last is the overflow bucket.
	counts []uint64
	// octave[e-exp0] is the first bucket whose bound is at least the
	// smallest float64 of biased binary exponent e, for every exponent
	// from bounds[0]'s (exp0) to the last bound's.
	octave []int32
	exp0   int
	total  uint64
	sum    float64
	// minSeen/maxSeen tighten quantile interpolation at the edges.
	minSeen, maxSeen float64
}

// NewLogHistogram builds a histogram whose bucket upper bounds are
// log-spaced from lo to hi inclusive. It panics on malformed shapes —
// bucket layouts are compile-time decisions, not runtime inputs.
func NewLogHistogram(lo, hi float64, buckets int) *Histogram {
	if buckets < 2 || lo <= 0 || hi <= lo {
		panic(fmt.Sprintf("metrics: bad log histogram [%v,%v]x%d", lo, hi, buckets))
	}
	h := &Histogram{
		bounds: make([]float64, buckets),
		counts: make([]uint64, buckets+1),
	}
	ratio := math.Pow(hi/lo, 1/float64(buckets-1))
	b := lo
	for i := range h.bounds {
		h.bounds[i] = b
		b *= ratio
	}
	// Pin the last bound exactly so values equal to hi never overflow from
	// accumulated rounding.
	h.bounds[buckets-1] = hi
	h.exp0 = exponent(lo)
	h.octave = make([]int32, exponent(hi)-h.exp0+1)
	i := 0
	for e := range h.octave {
		for floor := math.Float64frombits(uint64(h.exp0+e) << 52); h.bounds[i] < floor; {
			i++
		}
		h.octave[e] = int32(i)
	}
	return h
}

// exponent returns the biased binary exponent of v ≥ 0.
func exponent(v float64) int { return int(math.Float64bits(v) >> 52) }

// Observe records one value. Negative values are clamped to zero, matching
// LatencyRecorder.
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.counts[h.bucket(v)]++
	if h.total == 0 || v < h.minSeen {
		h.minSeen = v
	}
	if h.total == 0 || v > h.maxSeen {
		h.maxSeen = v
	}
	h.total++
	h.sum += v
}

// bucket returns the first bucket whose bound is ≥ v ≥ 0, as
// sort.SearchFloat64s would. Inside [bounds[0], last bound] it starts
// from the first bound at or above the floor of v's binary octave, a
// lower bound on the answer, and steps up: log-spaced bounds put only a
// few in each octave.
func (h *Histogram) bucket(v float64) int {
	b := h.bounds
	switch {
	case v <= b[0]:
		return 0
	case v > b[len(b)-1]:
		return len(b)
	}
	i := int(h.octave[exponent(v)-h.exp0])
	for b[i] < v {
		i++
	}
	return i
}

// Count reports the number of observed values.
func (h *Histogram) Count() uint64 { return h.total }

// Sum reports the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Quantile returns an approximation of the q-th quantile: the bucket
// holding the target rank is located and the value interpolated linearly
// across it. The result is clamped to the observed [min, max], and lies
// within one bucket of the exact sample quantile.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.minSeen
	}
	if q >= 1 {
		return h.maxSeen
	}
	// Target rank matches LatencyRecorder's position semantics: q·(n−1),
	// counted in observation order within the sorted population.
	rank := q * float64(h.total-1)
	cum := uint64(0)
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		// Bucket i covers ranks [cum, cum+c-1].
		if rank < float64(cum+c) {
			lower, upper := h.bucketEdges(i)
			// Interpolate by the rank's position inside the bucket.
			frac := (rank - float64(cum)) / float64(c)
			v := lower + frac*(upper-lower)
			return h.clamp(v)
		}
		cum += c
	}
	return h.maxSeen
}

// bucketEdges returns the interpolation range of bucket i, tightened by
// the observed extrema.
func (h *Histogram) bucketEdges(i int) (lower, upper float64) {
	switch {
	case i == 0:
		lower, upper = 0, h.bounds[0]
	case i == len(h.bounds):
		// Overflow bucket: everything above the last bound, capped by the
		// largest value actually seen.
		lower, upper = h.bounds[len(h.bounds)-1], h.maxSeen
	default:
		lower, upper = h.bounds[i-1], h.bounds[i]
	}
	if lower < h.minSeen {
		lower = h.minSeen
	}
	if upper > h.maxSeen {
		upper = h.maxSeen
	}
	if upper < lower {
		upper = lower
	}
	return lower, upper
}

func (h *Histogram) clamp(v float64) float64 {
	if v < h.minSeen {
		return h.minSeen
	}
	if v > h.maxSeen {
		return h.maxSeen
	}
	return v
}

// Buckets returns the upper bounds and cumulative counts in Prometheus
// histogram form: cumulative[i] counts observations ≤ bounds[i], and the
// overflow bucket is folded into the implicit +Inf bucket (== Count()).
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	bounds = make([]float64, len(h.bounds))
	copy(bounds, h.bounds)
	cumulative = make([]uint64, len(h.bounds))
	cum := uint64(0)
	for i := range h.bounds {
		cum += h.counts[i]
		cumulative[i] = cum
	}
	return bounds, cumulative
}
