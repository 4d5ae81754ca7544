package metrics

import (
	"fmt"
	"math/rand"
	"testing"
)

var quantileSink float64

// BenchmarkUtilizationAdd records one busy span per op on one device,
// back to back or from two overlapping instances. Each span folds once
// the watermark passes its end, so B/op is ~0 at any run length.
func BenchmarkUtilizationAdd(b *testing.B) {
	for _, c := range []struct {
		name string
		dur  float64
	}{{"back-to-back", 1e-3}, {"two-instance", 1.9e-3}} {
		b.Run(c.name, func(b *testing.B) {
			u := NewUtilizationTracker(0)
			slot := u.Register("gpu0")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				u.AddBusyAt(slot, float64(i)*1e-3, c.dur)
			}
		})
	}
}

// BenchmarkLatencyObserve records one latency per op from a cluster-like
// mix (5.6–100 ms): the running sum, the staging block and, every
// stageLen ops, a spill into the buckets.
func BenchmarkLatencyObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mix := make([]float64, 1<<16)
	for i := range mix {
		mix[i] = min(0.0056+rng.ExpFloat64()*0.012, 0.1)
	}
	var r LatencyRecorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Observe(mix[i&(len(mix)-1)])
	}
}

// BenchmarkLatencyQuantile reads the p50 and p999 of n recorded
// latencies per op; selection within the rank's bucket allocates nothing
// at any n.
func BenchmarkLatencyQuantile(b *testing.B) {
	for _, n := range []int{10_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var r LatencyRecorder
			for i := 0; i < n; i++ {
				r.Observe(rng.ExpFloat64() * 0.05)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				quantileSink = r.Quantile(0.5) + r.Quantile(0.999)
			}
		})
	}
}
