package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestQuantileInterpolationPinned pins LatencyRecorder.Quantile to linear
// interpolation between closest ranks (position q·(n−1)) against
// hand-computed values. Nearest-rank semantics — which the doc comment
// once promised — would return 2 and 4 for the middle cases below, not
// the interpolated 2.2 and 3.4.
func TestQuantileInterpolationPinned(t *testing.T) {
	var r LatencyRecorder
	for _, v := range []float64{5, 1, 4, 2, 3} { // unsorted on purpose
		r.Observe(v)
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1},       // min
		{1, 5},       // max
		{0.5, 3},     // pos 2.0 — exact order statistic
		{0.3, 2.2},   // pos 1.2 — blend of samples[1]=2 and samples[2]=3
		{0.6, 3.4},   // pos 2.4 — blend of samples[2]=3 and samples[3]=4
		{0.875, 4.5}, // pos 3.5 — midpoint of samples[3]=4 and samples[4]=5
	}
	for _, c := range cases {
		if got := r.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v (linear interpolation)", c.q, got, c.want)
		}
	}
}

func TestLogHistogramBounds(t *testing.T) {
	h := NewLogHistogram(1, 1024, 11) // powers of two
	bounds, _ := h.Buckets()
	want := 1.0
	for i, b := range bounds {
		if math.Abs(b-want) > 1e-9*want {
			t.Fatalf("bound[%d] = %v, want %v", i, b, want)
		}
		want *= 2
	}
}

func TestLogHistogramEmptyAndEdges(t *testing.T) {
	h := NewLogHistogram(1e-3, 10, 20)
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("empty histogram should report zeros")
	}
	h.Observe(-5) // clamped to 0, lands in bucket 0
	if h.Count() != 1 || h.Quantile(0) != 0 || h.Quantile(1) != 0 {
		t.Errorf("negative clamp: count=%d min=%v max=%v", h.Count(), h.Quantile(0), h.Quantile(1))
	}
	h.Observe(1e6) // overflow bucket
	if got := h.Quantile(1); got != 1e6 {
		t.Errorf("overflow max quantile = %v, want 1e6", got)
	}
	_, cum := h.Buckets()
	if cum[len(cum)-1] != 1 { // the overflow observation is not ≤ any bound
		t.Errorf("cumulative last = %d, want 1 (overflow excluded)", cum[len(cum)-1])
	}
}

func TestLogHistogramPanicsOnBadShape(t *testing.T) {
	for _, c := range []struct {
		lo, hi float64
		n      int
	}{
		{0, 1, 10}, {1, 1, 10}, {2, 1, 10}, {1, 2, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLogHistogram(%v,%v,%d) did not panic", c.lo, c.hi, c.n)
				}
			}()
			NewLogHistogram(c.lo, c.hi, c.n)
		}()
	}
}

// TestLogHistogramQuantileProperty checks the histogram's quantiles
// against the exact recorder on random workloads: for in-range samples the
// approximation must land within one bucket (a factor of growth²,
// covering the case where the exact interpolated quantile straddles a
// bucket edge) of the exact value.
func TestLogHistogramQuantileProperty(t *testing.T) {
	const lo, hi, buckets = 1e-4, 10.0, 40
	growth := math.Pow(hi/lo, 1.0/(buckets-1)) // ratio between consecutive bounds
	qs := []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := NewLogHistogram(lo, hi, buckets)
		var r LatencyRecorder
		n := 100 + rng.Intn(5000)
		for i := 0; i < n; i++ {
			// Log-uniform across the bucket range, the adversarial case for
			// log-spaced buckets.
			v := lo * math.Pow(hi/lo, rng.Float64())
			h.Observe(v)
			r.Observe(v)
		}
		tol := growth * growth
		for _, q := range qs {
			exact := r.Quantile(q)
			approx := h.Quantile(q)
			if approx > exact*tol+1e-12 || approx < exact/tol-1e-12 {
				t.Errorf("seed %d n %d: Quantile(%v) = %v, exact %v (outside ×%.3f tolerance)",
					seed, n, q, approx, exact, tol)
			}
		}
		if h.Count() != uint64(n) {
			t.Errorf("count %d, want %d", h.Count(), n)
		}
		if mean := h.Sum() / float64(h.Count()); math.Abs(mean-r.Mean()) > 1e-9*r.Mean() {
			t.Errorf("mean %v != exact %v", mean, r.Mean())
		}
	}
}

// TestLogHistogramQuantileMonotone: quantiles must be non-decreasing in q.
func TestLogHistogramQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewLogHistogram(1e-3, 1, 16)
	for i := 0; i < 1000; i++ {
		h.Observe(rng.Float64())
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev-1e-12 {
			t.Fatalf("Quantile(%v) = %v < previous %v", q, v, prev)
		}
		prev = v
	}
}

// TestBucketMatchesSearch checks the octave-table bucket search against
// sort.SearchFloat64s on every bound, its float neighbours, octave floors
// and random values, for the tracer's shapes and odd ones (a bound range
// inside one octave, one starting among the subnormals).
func TestBucketMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, shape := range []struct {
		lo, hi  float64
		buckets int
	}{
		{1e-4, 10, 40}, {1, 4096, 13}, {1e-4, 10, 400}, {1.1, 1.3, 7}, {1e-310, 1e-300, 16}, {0.5, 2, 2},
	} {
		h := NewLogHistogram(shape.lo, shape.hi, shape.buckets)
		vals := []float64{0, 5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, math.Inf(1)}
		for _, b := range h.bounds {
			vals = append(vals, b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)))
			floor := math.Float64frombits(uint64(exponent(b)) << 52)
			vals = append(vals, floor, math.Nextafter(floor, 0))
		}
		for range 10_000 {
			vals = append(vals, math.Exp(rng.Float64()*math.Log(shape.hi/shape.lo)*1.2)*shape.lo*0.9)
		}
		for _, v := range vals {
			if got, want := h.bucket(v), sort.SearchFloat64s(h.bounds, v); got != want {
				t.Fatalf("[%v,%v]x%d: bucket(%v) = %d, want %d", shape.lo, shape.hi, shape.buckets, v, got, want)
			}
		}
	}
}
