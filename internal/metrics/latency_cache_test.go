package metrics

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

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

// TestQuantileDoesNotReorderSamples: reads change nothing. Quantile and
// Summarize, with keys still staged and after a spill, leave Samples(),
// the staged keys (a read never spills) and every later read as they
// were.
func TestQuantileDoesNotReorderSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{5, stageLen, stageLen + 40} {
		var r LatencyRecorder
		for range n {
			r.Observe(rng.ExpFloat64() * 0.05)
		}
		qs := []float64{0, 0.1, 0.5, 0.9, 0.999, 1}
		before, staged := r.Samples(), r.staged
		var first []float64
		for _, q := range qs {
			first = append(first, r.Quantile(q))
		}
		_ = r.Summarize()
		for i, q := range qs {
			if got := r.Quantile(q); math.Float64bits(got) != math.Float64bits(first[i]) {
				t.Fatalf("n=%d: Quantile(%v) read %v, then %v after more reads", n, q, first[i], got)
			}
		}
		if after := r.Samples(); !slices.Equal(after, before) {
			t.Fatalf("n=%d: reads changed Samples() from %v to %v", n, before, after)
		}
		if r.staged != staged {
			t.Fatalf("n=%d: reads left %d keys staged, want %d", n, r.staged, staged)
		}
	}
}

// TestLatencyRecorderAcrossChunks: around and across every staging,
// block and chunk boundary the recorder reads exactly like one flat
// slice: count, Samples() in sorted order, the mean as the draw-order
// sum over the count, and every quantile. One draw keeps every sample in
// one bucket, so that bucket crosses each block and chunk boundary at
// the counts drawn; the other spreads them over dozens of prefixes.
func TestLatencyRecorderAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, draw := range map[string]func() float64{
		"one-prefix":    func() float64 { return 0.0305 + rng.Float64()*0.0005 },
		"many-prefixes": func() float64 { return rng.ExpFloat64() * 0.05 },
	} {
		for _, n := range recorderBoundaries() {
			var r LatencyRecorder
			raw := make([]float64, n)
			sum := 0.0
			for i := range raw {
				raw[i] = draw()
				sum += raw[i]
				r.Observe(raw[i])
			}
			if r.Count() != n {
				t.Fatalf("%s n=%d: Count() = %d", name, n, r.Count())
			}
			sorted := slices.Clone(raw)
			sort.Float64s(sorted)
			got := r.Samples()
			if !slices.Equal(got, sorted) {
				t.Fatalf("%s n=%d: Samples() is not the sorted draw", name, n)
			}
			want := 0.0
			if n > 0 {
				want = sum / float64(n)
			}
			if m := r.Mean(); m != want {
				t.Fatalf("%s n=%d: Mean() = %v, want %v", name, n, m, want)
			}
			for _, q := range []float64{0, 0.25, 0.5, 0.999, 1} {
				if g, w := r.Quantile(q), exhaustiveQuantile(raw, q); g != w {
					t.Fatalf("%s n=%d: Quantile(%v) = %v, want %v", name, n, q, g, w)
				}
			}
			if n > 0 {
				got[0] = -1
				if r.Samples()[0] != sorted[0] {
					t.Fatalf("%s n=%d: writing to Samples()'s result changed the recorder", name, n)
				}
			}
		}
	}
}
