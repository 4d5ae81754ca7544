package metrics

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"e3/internal/store"
)

// boundaryCounts are entry counts at and around every place the paged
// latency store changes shape: the first page (63/64/65), each doubled
// page size, each cumulative page boundary while sizes double, and the
// full page (4095/4096/4097) and the first pages after it.
func boundaryCounts() []int {
	ns := []int{0, 1, 2}
	around := func(b int) { ns = append(ns, b-1, b, b+1) }
	for p := 0; p <= store.FirstPages; p++ {
		around(store.PageSize(p))
	}
	total := 0
	for p := 0; total < 3*store.PageLen; p++ {
		total += store.PageSize(p)
		around(total)
	}
	return ns
}

// flatBusy is the flat-slice oracle for one resource: the clipped
// recording-order sum over every span UtilizationTracker has recorded,
// as it computed it when it kept them all.
func flatBusy(spans []busySpan, since, end float64) float64 {
	total := 0.0
	for _, s := range spans {
		lo, hi := s.start, s.end
		if lo < since {
			lo = since
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}

// flatUtilization is the oracle for Utilization over per-resource flat
// span slices: fractions clamped to 1, summed in sorted-name order.
func flatUtilization(spans map[string][]busySpan, since, end float64) float64 {
	horizon := end - since
	if horizon <= 0 || len(spans) == 0 {
		return 0
	}
	names := make([]string, 0, len(spans))
	for name := range spans {
		names = append(names, name)
	}
	sort.Strings(names)
	sum := 0.0
	for _, name := range names {
		frac := flatBusy(spans[name], since, end) / horizon
		if frac > 1 {
			frac = 1
		}
		sum += frac
	}
	return sum / float64(len(names))
}

func nanos(x float64) int64 { return int64(math.Round(x * 1e9)) }

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestUtilizationMatchesFlatOracle: a tracker that folds its spans reads
// exactly like one flat slice of every span per resource. Two devices
// record streams that advance in time with two instances each, so spans
// overlap; some records arrive out of order, have zero, negative or NaN
// duration, a NaN start, a long tail that blocks the fold, or start
// before the window. Between batches of adds, Utilization must match the
// flat oracle bit for bit at the watermark, at ends inside pending spans
// and past every span; an end before the watermark must panic; and
// BusyNanos must equal the oracle's integer-nanosecond sum.
func TestUtilizationMatchesFlatOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	nan := math.NaN()
	devices := []string{"gpu1", "gpu0", "gpu2"}
	for _, n := range []int{0, 1, 2, 3, 17, 64, 65, 1000, 20_000} {
		since := float64(rng.Intn(3))
		u := NewUtilizationTracker(since)
		flat := make(map[string][]busySpan)
		// gpu2 stays idle: registered, so it counts in the mean.
		flat["gpu2"] = nil
		for _, name := range devices {
			u.Register(name)
		}
		clock := map[string]float64{"gpu1": since - 1, "gpu0": since - 0.5}
		watermark := math.Inf(-1)
		check := func() {
			ends := []float64{watermark, math.Nextafter(watermark, math.Inf(1)), watermark + 0.01, watermark + 1e3, since + 50}
			for _, name := range devices[:2] {
				spans := flat[name]
				// Ends inside spans recorded last, which a query may
				// still clip.
				for k := max(len(spans)-4, 0); k < len(spans); k++ {
					if s := spans[k]; s.end > watermark {
						ends = append(ends, s.end, math.Max(s.start, watermark)+(s.end-math.Max(s.start, watermark))*rng.Float64())
					}
				}
			}
			for _, end := range ends {
				if math.IsInf(end, -1) || end < watermark {
					continue
				}
				got, want := u.Utilization(end), flatUtilization(flat, since, end)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d since=%v: Utilization(%v) = %v, flat oracle %v", n, since, end, got, want)
				}
			}
			if !math.IsInf(watermark, -1) {
				before := math.Nextafter(watermark, math.Inf(-1))
				if !panics(func() { u.Utilization(before) }) {
					t.Fatalf("n=%d: Utilization(%v) before the watermark %v did not panic", n, before, watermark)
				}
			}
			for _, name := range devices {
				var want int64
				for _, s := range flat[name] {
					want += nanos(s.end) - nanos(s.start)
				}
				if got := u.BusyNanos(name); got != want {
					t.Fatalf("n=%d %s: BusyNanos = %d, flat oracle %d", n, name, got, want)
				}
			}
		}
		check()
		for added := 0; added < n; {
			for batch := 1 + rng.Intn(64); batch > 0 && added < n; batch-- {
				added++
				name := devices[rng.Intn(2)]
				clock[name] += rng.ExpFloat64() * 0.01
				start := clock[name]
				// Two instances per device: each span lasts about two
				// inter-start gaps, so consecutive spans overlap.
				d := rng.ExpFloat64() * 0.02
				switch rng.Intn(24) {
				case 0:
					d = 0
				case 1:
					d = -rng.Float64() // clamped to zero length
				case 2:
					d = nan
				case 3:
					start = nan
				case 4:
					start -= rng.Float64() * 0.5 // out of order
				case 5:
					d = 2 + rng.Float64() // a long tail that blocks the fold
				case 6:
					start = since - 2*rng.Float64() // before the window
				}
				u.AddBusyAt(u.Register(name), start, d)
				flat[name] = append(flat[name], busySpan{start: start, end: start + max(d, 0)})
				if start > watermark {
					watermark = start
				}
			}
			check()
		}
	}
}

// sameQuantile reports whether a selected order statistic equals the
// sort oracle's bit for bit. sort.Float64s leaves -0 and +0 in no defined
// order, so when the input holds both, either zero matches a zero.
func sameQuantile(got, want float64, mixedZeros bool) bool {
	if math.Float64bits(got) == math.Float64bits(want) {
		return true
	}
	return mixedZeros && got == 0 && want == 0
}

// TestQuantileSelectMatchesSortOracle pins Quantile, Min, Max and
// Summarize to a sorted copy plus type-7 interpolation on inputs that
// stress the order-preserving key: NaN (sorted first), ±0, +Inf,
// duplicates, all-equal samples, and every page boundary.
func TestQuantileSelectMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	nan := math.NaN()
	families := []struct {
		name string
		draw func() float64
	}{
		{"exp", func() float64 { return rng.ExpFloat64() * 0.05 }},
		{"dups", func() float64 { return float64(rng.Intn(5)) * 0.125 }},
		{"all-equal", func() float64 { return 0.0375 }},
		{"all-nan", func() float64 { return nan }},
		{"all-neg0", func() float64 { return math.Copysign(0, -1) }},
		{"mixed", func() float64 {
			switch rng.Intn(8) {
			case 0:
				return nan
			case 1:
				return math.Copysign(0, -1)
			case 2:
				return 0
			case 3:
				return math.Inf(1)
			case 4:
				return -rng.Float64() // clamped to +0
			default:
				return rng.Float64() * math.Pow(2, float64(rng.Intn(80)-40))
			}
		}},
	}
	qs := []float64{-1, 0, 1e-9, 0.001, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1 - 1e-12, 1, 2}
	for _, fam := range families {
		name := fam.name
		for _, n := range boundaryCounts() {
			var r LatencyRecorder
			for i := 0; i < n; i++ {
				r.Observe(fam.draw())
			}
			raw := r.Samples()
			var pos, neg bool
			sum := 0.0
			for _, v := range raw {
				pos = pos || math.Float64bits(v) == 0
				neg = neg || math.Float64bits(v) == 1<<63
				sum += v
			}
			mixedZeros := pos && neg
			for _, q := range append(qs, rng.Float64(), rng.Float64()) {
				if got, want := r.Quantile(q), exhaustiveQuantile(raw, q); !sameQuantile(got, want, mixedZeros) {
					t.Fatalf("%s n=%d: Quantile(%v) = %v (%#x), sort oracle %v (%#x)",
						name, n, q, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			want := Summary{
				Min: exhaustiveQuantile(raw, 0), P25: exhaustiveQuantile(raw, 0.25),
				Median: exhaustiveQuantile(raw, 0.5), P75: exhaustiveQuantile(raw, 0.75),
				Max: exhaustiveQuantile(raw, 1), Count: n,
			}
			if n > 0 {
				want.Mean = sum / float64(n)
			}
			got := r.Summarize()
			for _, f := range [][2]float64{
				{got.Min, want.Min}, {got.P25, want.P25}, {got.Median, want.Median}, {got.P75, want.P75},
				{got.Max, want.Max}, {got.Mean, want.Mean}, {r.Quantile(0), want.Min}, {r.Quantile(1), want.Max},
			} {
				if !sameQuantile(f[0], f[1], mixedZeros) {
					t.Fatalf("%s n=%d: Summarize() = %+v, Quantile(0) %v, Quantile(1) %v; sort oracle %+v", name, n, got, r.Quantile(0), r.Quantile(1), want)
				}
			}
			if got.Count != n {
				t.Fatalf("%s n=%d: Summarize().Count = %d", name, n, got.Count)
			}
		}
	}
}

// TestQuantileBetweenLongRuns: when more samples than one selection
// gathers share a key, a quantile that interpolates between the last of
// them and the first sample of the next key must read both.
func TestQuantileBetweenLongRuns(t *testing.T) {
	const run = gatherMax + 88
	rng := rand.New(rand.NewSource(32))
	var r LatencyRecorder
	for _, i := range rng.Perm(3 * run) {
		r.Observe(float64(1 + i/run))
	}
	raw := r.Samples()
	n := float64(len(raw) - 1)
	for _, pos := range []float64{run - 1.5, run - 1, run - 0.5, run - 0.25, 2*run - 0.5, 2*run + 0.5} {
		q := pos / n
		if got, want := r.Quantile(q), exhaustiveQuantile(raw, q); got != want {
			t.Fatalf("Quantile(%v) at position %v = %v, sort oracle %v", q, pos, got, want)
		}
	}
}

// TestOrderKeyIsSortOrder: orderKey orders floats as sort.Float64s does
// (NaN first, -0 before +0 where sort leaves them tied) and keyFloat
// inverts it bit for bit, NaN payloads included.
func TestOrderKeyIsSortOrder(t *testing.T) {
	vals := []float64{
		math.NaN(), math.Copysign(math.NaN(), -1), math.Float64frombits(0x7FFFFFFFFFFFFFFF),
		math.Float64frombits(0xFFFFFFFFFFFFFFFF), math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1),
	}
	for _, v := range vals {
		if b := math.Float64bits(keyFloat(orderKey(v))); b != math.Float64bits(v) {
			t.Fatalf("keyFloat(orderKey(%#x)) = %#x", math.Float64bits(v), b)
		}
	}
	for i, a := range vals {
		for _, b := range vals[i+1:] {
			aNaN, bNaN := math.IsNaN(a), math.IsNaN(b)
			switch {
			case aNaN && bNaN:
			case bNaN:
				t.Fatalf("vals out of order: NaN %#x after %v", math.Float64bits(b), a)
			case aNaN || a <= b:
				if orderKey(a) >= orderKey(b) {
					t.Fatalf("orderKey(%v) = %#x ≥ orderKey(%v) = %#x", a, orderKey(a), b, orderKey(b))
				}
			}
		}
	}
}

// allocBytes reports the heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRecorderGrowthAllocations: recording N latencies allocates one
// element per entry plus at most one page of slack and the page
// headers, where a doubling slice allocates about twice what it keeps.
// Recording N busy spans allocates a bound that does not grow with N:
// back to back, from two overlapping instances per device, or with some
// NaN-ended spans, each device keeps only the spans still in flight.
func TestRecorderGrowthAllocations(t *testing.T) {
	const n = 1 << 18
	headers := uint64(3 * 24 * (n/store.PageLen + 8))
	const devices = 4
	for _, pattern := range []struct {
		name       string
		start, dur func(i int) float64
	}{
		{"back-to-back", func(i int) float64 { return float64(i) * 1e-3 }, func(int) float64 { return 1e-3 }},
		{"two-instance", func(i int) float64 { return float64(i) * 1e-3 }, func(i int) float64 { return 1.9e-3 + float64(i%3)*1e-4 }},
		// A NaN-ended span adds nothing at any end, so it must fold at
		// once rather than pin every span behind it.
		{"nan-ended", func(i int) float64 { return float64(i) * 1e-3 }, func(i int) float64 {
			if i%1024 == 0 {
				return math.NaN()
			}
			return 1e-3
		}},
	} {
		u := NewUtilizationTracker(0)
		for d := 0; d < devices; d++ {
			u.Register(string(rune('a' + d)))
		}
		spans := allocBytes(func() {
			for i := 0; i < n; i++ {
				u.AddBusyAt(i%devices, pattern.start(i/devices), pattern.dur(i/devices))
			}
		})
		if limit := uint64(devices * 1024); spans > limit {
			t.Errorf("%s: %d spans on %d devices allocated %d B, want ≤ %d", pattern.name, n, devices, spans, limit)
		}
	}
	var r LatencyRecorder
	lats := allocBytes(func() {
		for i := 0; i < n; i++ {
			r.Observe(float64(i))
		}
	})
	if limit := uint64(n+store.PageLen)*8 + headers; lats > limit {
		t.Errorf("%d latencies allocated %d B, want ≤ %d", n, lats, limit)
	}
}

// TestSmallTrackerStaysSmall: a device that records up to 64 spans costs
// at most 128 B of span storage.
func TestSmallTrackerStaysSmall(t *testing.T) {
	const devices = 8
	for _, spans := range []int{1, 64} {
		u := NewUtilizationTracker(0)
		for d := 0; d < devices; d++ {
			u.Register(string(rune('a' + d)))
		}
		got := allocBytes(func() {
			for d := 0; d < devices; d++ {
				for i := 0; i < spans; i++ {
					u.AddBusyAt(d, float64(i), 0.5)
				}
			}
		})
		if got > devices*128 {
			t.Errorf("%d spans on each of %d devices allocated %d B, want ≤ %d", spans, devices, got, devices*128)
		}
	}
}

// TestQuantileWorkingMemoryIsConstant: reads cost the same at 10k and at
// 1M samples, all-equal samples included — no sorted copy.
func TestQuantileWorkingMemoryIsConstant(t *testing.T) {
	read := func(n int, v func(i int) float64) uint64 {
		var r LatencyRecorder
		for i := 0; i < n; i++ {
			r.Observe(v(i))
		}
		return allocBytes(func() {
			quantileSink = r.Quantile(0.5) + r.Quantile(0.999) + r.Summarize().Median
		})
	}
	spread := func(i int) float64 { return float64(i%9973) * 1e-4 }
	equal := func(int) float64 { return 0.02 }
	for name, v := range map[string]func(int) float64{"spread": spread, "all-equal": equal} {
		small, large := read(10_000, v), read(1_000_000, v)
		if small != large {
			t.Errorf("%s: quantile reads allocated %d B at n=10k but %d B at n=1M", name, small, large)
		}
	}
}
