package metrics

import (
	"math/rand"
	"sort"
	"testing"

	"e3/internal/store"
)

// latChunk is the store's full page; TestLatencyRecorderAcrossChunks
// reads around its boundaries.
const latChunk = store.PageLen

// exhaustiveQuantile recomputes the type-7 quantile from a sorted copy —
// the oracle the copy-free selection must match exactly.
func exhaustiveQuantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := lo
	if float64(lo) < pos {
		hi = lo + 1
	}
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// TestQuantileCacheMatchesExhaustiveResort interleaves Observe and
// Quantile calls and pins every read to the exhaustive re-sort oracle:
// a read must see every sample recorded before it, and repeated reads
// must agree.
func TestQuantileCacheMatchesExhaustiveResort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var r LatencyRecorder
	var raw []float64
	qs := []float64{0, 0.25, 0.5, 0.9, 0.99, 1}
	for i := 0; i < 2000; i++ {
		v := rng.Float64()
		r.Observe(v)
		raw = append(raw, v)
		// Read mid-stream at irregular intervals, including repeated
		// reads with no new samples.
		if i%7 == 0 {
			for _, q := range qs {
				got := r.Quantile(q)
				want := exhaustiveQuantile(raw, q)
				if got != want {
					t.Fatalf("after %d samples: Quantile(%v) = %v, want exhaustive %v", i+1, q, got, want)
				}
				if again := r.Quantile(q); again != got {
					t.Fatalf("repeated Quantile(%v) changed: %v then %v", q, got, again)
				}
			}
		}
	}
}

// TestQuantileDoesNotReorderSamples pins the fix for the in-place sort:
// quantile reads must leave the record-order view untouched.
func TestQuantileDoesNotReorderSamples(t *testing.T) {
	var r LatencyRecorder
	in := []float64{0.5, 0.1, 0.9, 0.3, 0.7}
	for _, v := range in {
		r.Observe(v)
	}
	_ = r.Quantile(0.5)
	_ = r.Summarize()
	got := r.Samples()
	for i, v := range in {
		if got[i] != v {
			t.Fatalf("Quantile reordered samples: %v, want record order %v", got, in)
		}
	}
}

// TestLatencyRecorderAcrossChunks: around and across page boundaries the
// paged store reads exactly like one flat slice: count, record order,
// mean (same summation order) and every quantile.
func TestLatencyRecorderAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, latChunk - 1, latChunk, latChunk + 1, 3*latChunk + 17} {
		var r LatencyRecorder
		raw := make([]float64, n)
		for i := range raw {
			raw[i] = rng.ExpFloat64() * 0.05
			r.Observe(raw[i])
		}
		if r.Count() != n {
			t.Fatalf("n=%d: Count() = %d", n, r.Count())
		}
		got := r.Samples()
		if len(got) != n {
			t.Fatalf("n=%d: Samples() has %d entries", n, len(got))
		}
		sum := 0.0
		for i, v := range raw {
			if got[i] != v {
				t.Fatalf("n=%d: Samples()[%d] = %v, want %v", n, i, got[i], v)
			}
			sum += v
		}
		want := 0.0
		if n > 0 {
			want = sum / float64(n)
		}
		if m := r.Mean(); m != want {
			t.Fatalf("n=%d: Mean() = %v, want %v", n, m, want)
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.999, 1} {
			if g, w := r.Quantile(q), exhaustiveQuantile(raw, q); g != w {
				t.Fatalf("n=%d: Quantile(%v) = %v, want %v", n, q, g, w)
			}
		}
		if n > 0 {
			got[0] = -1
			if r.Samples()[0] != raw[0] {
				t.Fatalf("n=%d: writing to Samples()'s result changed the recorder", n)
			}
		}
	}
}
