// Package metrics collects serving statistics: request latencies, goodput,
// GPU utilization, and dollar cost. All aggregation is exact (samples are
// retained) because experiment populations are modest; quantiles therefore
// match the paper's box-plot semantics precisely.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// LatencyRecorder accumulates per-request completion latencies (seconds).
// The zero value is ready to use.
//
// Observations are stored in fixed latChunk-entry chunks in record order:
// an hour-scale run appends tens of millions of latencies, and one
// doubling slice would copy every one of them again at each regrowth and
// briefly hold both copies.
type LatencyRecorder struct {
	chunks [][]float64
	n      int
	// sorted caches an ordered copy of the observations so repeated
	// quantile reads (every /metrics scrape calls Quantile several times)
	// cost O(n log n) once per batch of new observations, not per call.
	sorted []float64
	dirty  bool
}

// latChunk is the number of observations one chunk holds.
const latChunk = 4096

// Observe records one latency sample. Negative values are clamped to zero:
// they can only arise from floating-point jitter at batch boundaries.
func (r *LatencyRecorder) Observe(lat float64) {
	if lat < 0 {
		lat = 0
	}
	k := len(r.chunks) - 1
	if k < 0 || len(r.chunks[k]) == latChunk {
		r.chunks = append(r.chunks, make([]float64, 0, latChunk))
		k++
	}
	r.chunks[k] = append(r.chunks[k], lat)
	r.n++
	r.dirty = true
}

// Count reports the number of samples observed.
func (r *LatencyRecorder) Count() int { return r.n }

// Samples returns a copy of the observations in record order. Quantile
// never reorders them.
func (r *LatencyRecorder) Samples() []float64 {
	return r.appendSamples(make([]float64, 0, r.n))
}

// appendSamples appends the observations to dst in record order.
func (r *LatencyRecorder) appendSamples(dst []float64) []float64 {
	for _, c := range r.chunks {
		dst = append(dst, c...)
	}
	return dst
}

func (r *LatencyRecorder) ensureSorted() {
	if !r.dirty && len(r.sorted) == r.n {
		return
	}
	r.sorted = r.appendSamples(r.sorted[:0])
	sort.Float64s(r.sorted)
	r.dirty = false
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear
// interpolation between closest ranks (the "type 7" estimator NumPy and R
// default to): the quantile position is q·(n−1), and a fractional position
// blends the two neighbouring order statistics. It returns 0 for an empty
// recorder.
func (r *LatencyRecorder) Quantile(q float64) float64 {
	if r.n == 0 {
		return 0
	}
	r.ensureSorted()
	s := r.sorted
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Min returns the smallest sample (0 if empty).
func (r *LatencyRecorder) Min() float64 { return r.Quantile(0) }

// Max returns the largest sample (0 if empty).
func (r *LatencyRecorder) Max() float64 { return r.Quantile(1) }

// Mean returns the arithmetic mean (0 if empty).
func (r *LatencyRecorder) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range r.chunks {
		for _, s := range c {
			sum += s
		}
	}
	return sum / float64(r.n)
}

// Summary is a five-number latency summary plus the mean, in seconds.
type Summary struct {
	Min, P25, Median, P75, Max, Mean float64
	Count                            int
}

// Summarize computes the five-number summary of the recorded latencies.
func (r *LatencyRecorder) Summarize() Summary {
	return Summary{
		Min:    r.Quantile(0),
		P25:    r.Quantile(0.25),
		Median: r.Quantile(0.5),
		P75:    r.Quantile(0.75),
		Max:    r.Quantile(1),
		Mean:   r.Mean(),
		Count:  r.Count(),
	}
}

// String renders the summary in milliseconds for human-readable tables.
func (s Summary) String() string {
	return fmt.Sprintf("min=%.1fms p25=%.1fms med=%.1fms p75=%.1fms max=%.1fms (n=%d)",
		s.Min*1e3, s.P25*1e3, s.Median*1e3, s.P75*1e3, s.Max*1e3, s.Count)
}

// GoodputMeter tracks served/dropped samples over a virtual-time horizon.
type GoodputMeter struct {
	Served  int // completed within SLO
	Dropped int // dropped by admission control or missed SLO
	start   float64
	end     float64
}

// NewGoodputMeter starts a meter at virtual time start.
func NewGoodputMeter(start float64) *GoodputMeter {
	return &GoodputMeter{start: start, end: start}
}

// ServeOK records n samples completing within SLO at virtual time t.
func (g *GoodputMeter) ServeOK(n int, t float64) {
	g.Served += n
	if t > g.end {
		g.end = t
	}
}

// Drop records n samples dropped or SLO-violated at virtual time t.
func (g *GoodputMeter) Drop(n int, t float64) {
	g.Dropped += n
	if t > g.end {
		g.end = t
	}
}

// CloseAt extends the measurement horizon to t (used when the run ends at a
// fixed wall-clock boundary rather than with the last completion).
func (g *GoodputMeter) CloseAt(t float64) {
	if t > g.end {
		g.end = t
	}
}

// Goodput reports served samples per second of elapsed virtual time.
func (g *GoodputMeter) Goodput() float64 {
	d := g.end - g.start
	if d <= 0 {
		return 0
	}
	return float64(g.Served) / d
}

// busySpan is one contiguous busy interval of a resource in virtual time.
type busySpan struct {
	start, end float64
}

// UtilizationTracker records busy intervals per resource so experiments
// can report average GPU utilization over a horizon. Intervals (not bare
// sums) are kept because work dispatched near the end of a run extends
// past the measurement horizon: crediting its full duration would count
// busy time outside [start, end] and saturate the reported fraction.
//
// Each resource has a slot, assigned on first sight, so the per-batch
// AddBusyAt indexes a slice instead of hashing the resource's name.
type UtilizationTracker struct {
	slots map[string]int
	// names[i] and busy[i] are slot i's resource and its intervals.
	names []string
	busy  [][]busySpan
	since float64
}

// NewUtilizationTracker starts tracking at virtual time start.
func NewUtilizationTracker(start float64) *UtilizationTracker {
	return &UtilizationTracker{slots: make(map[string]int), since: start}
}

// Register ensures a resource appears in the denominator even if always
// idle, and returns its slot for AddBusyAt.
func (u *UtilizationTracker) Register(name string) int {
	if i, ok := u.slots[name]; ok {
		return i
	}
	i := len(u.names)
	u.slots[name] = i
	u.names = append(u.names, name)
	u.busy = append(u.busy, nil)
	return i
}

// AddBusy credits d seconds of busy time to resource name beginning at
// virtual time start.
func (u *UtilizationTracker) AddBusy(name string, start, d float64) {
	u.AddBusyAt(u.Register(name), start, d)
}

// AddBusyAt is AddBusy for the resource registered at slot i.
func (u *UtilizationTracker) AddBusyAt(i int, start, d float64) {
	if d < 0 {
		d = 0
	}
	u.busy[i] = append(u.busy[i], busySpan{start: start, end: start + d})
}

// busyWithin sums the spans' overlap with the measurement window
// [u.since, end].
func (u *UtilizationTracker) busyWithin(spans []busySpan, end float64) float64 {
	total := 0.0
	for _, s := range spans {
		lo, hi := s.start, s.end
		if lo < u.since {
			lo = u.since
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

// Utilization reports mean busy fraction across all tracked resources over
// [start, end]. Resources that never reported busy time count as idle only
// if they were registered via Register.
func (u *UtilizationTracker) Utilization(end float64) float64 {
	horizon := end - u.since
	if horizon <= 0 || len(u.names) == 0 {
		return 0
	}
	// Sum in sorted-name order: float addition is non-associative, and
	// the result must not depend on the order resources registered in.
	sum := 0.0
	for _, name := range u.Resources() {
		frac := u.busyWithin(u.busy[u.slots[name]], end) / horizon
		if frac > 1 {
			frac = 1
		}
		sum += frac
	}
	return sum / float64(len(u.names))
}

// Resources returns the tracked resource names, sorted.
func (u *UtilizationTracker) Resources() []string {
	out := append([]string(nil), u.names...)
	sort.Strings(out)
	return out
}

// BusySpans returns one resource's raw busy intervals as [start, end]
// pairs in recording order — the ledger side of the flame profiler's
// exact reconcile. The returned slice is a copy.
func (u *UtilizationTracker) BusySpans(name string) [][2]float64 {
	i, ok := u.slots[name]
	if !ok {
		return [][2]float64{}
	}
	spans := u.busy[i]
	out := make([][2]float64, len(spans))
	for i, s := range spans {
		out[i] = [2]float64{s.start, s.end}
	}
	return out
}
