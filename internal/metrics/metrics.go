// Package metrics collects serving statistics: request latencies, goodput,
// GPU utilization, and dollar cost. All aggregation is exact. Latency
// samples are retained, so quantiles match the paper's box-plot semantics
// precisely; busy intervals are folded into running sums as soon as no
// admissible utilization query can clip them.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"e3/internal/store"
)

// LatencyRecorder accumulates per-request completion latencies (seconds).
// The zero value is ready to use.
//
// Observations are kept in record order in a paged store, so an
// hour-scale run's tens of millions of latencies are never copied as the
// store grows. Quantile selects the order statistics it needs over the
// stored pages instead of sorting a copy, so reads allocate nothing and
// never reorder the samples.
type LatencyRecorder struct {
	lat store.Pages[float64]
}

// Observe records one latency sample. Negative values are clamped to zero:
// they can only arise from floating-point jitter at batch boundaries.
func (r *LatencyRecorder) Observe(lat float64) {
	if lat < 0 {
		lat = 0
	}
	r.lat.Append(lat)
}

// Count reports the number of samples observed.
func (r *LatencyRecorder) Count() int { return r.lat.Len() }

// Samples returns a copy of the observations in record order.
func (r *LatencyRecorder) Samples() []float64 {
	out := make([]float64, 0, r.lat.Len())
	for p := range r.lat.NumPages() {
		out = append(out, r.lat.Page(p)...)
	}
	return out
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear
// interpolation between closest ranks (the "type 7" estimator NumPy and R
// default to): the quantile position is q·(n−1), and a fractional position
// blends the two neighbouring order statistics. Ranks follow
// sort.Float64s's order, NaNs first. It returns 0 for an empty recorder.
func (r *LatencyRecorder) Quantile(q float64) float64 {
	n := r.lat.Len()
	if n == 0 {
		return 0
	}
	rank := 0
	if q >= 1 {
		rank = n - 1
	}
	if q > 0 && q < 1 {
		pos := q * float64(n-1)
		lo := int(math.Floor(pos))
		if hi := int(math.Ceil(pos)); lo != hi {
			frac := pos - float64(lo)
			a, b := r.rankKeys(lo, true)
			return keyFloat(a)*(1-frac) + keyFloat(b)*frac
		}
		rank = lo
	}
	key, _ := r.rankKeys(rank, false)
	return keyFloat(key)
}

// orderKey maps x to a key whose unsigned order is sort.Float64s's order
// of the values: every NaN first, then -Inf up to +Inf, with -0 before
// +0 (sort.Float64s leaves the two zeros in no defined order). The
// sign-flip transform orders every non-NaN float and sends positive NaNs
// above +Inf and negative NaNs below -Inf; subtracting nanShift rotates
// the positive NaNs round to the bottom. The map is a bijection, so
// keyFloat recovers x bit for bit.
func orderKey(x float64) uint64 {
	b := math.Float64bits(x)
	if b>>63 != 0 {
		b = ^b
	} else {
		b |= 1 << 63
	}
	return b - nanShift
}

// nanShift is the sign-flipped bits of the smallest positive NaN.
const nanShift = 0xFFF0000000000001

// keyFloat inverts orderKey.
func keyFloat(k uint64) float64 {
	b := k + nanShift
	if b>>63 != 0 {
		b &^= 1 << 63
	} else {
		b = ^b
	}
	return math.Float64frombits(b)
}

// gatherMax bounds how many candidate keys rankKeys copies out to
// finish its selection by sorting.
const gatherMax = 512

// rankKeys returns the key of the k-th smallest sample (0-based) and, if
// pair is set, of the (k+1)-th (k+1 < Count()); otherwise next is key.
//
// It selects by radix: each pass over the pages histograms the next key
// byte among the samples that share the bytes fixed so far, and fixes the
// byte that holds rank k. Once at most gatherMax samples share the prefix,
// one more pass copies their keys into a fixed buffer and sorting it
// finishes the selection. Working memory is one histogram and that buffer
// whatever the count, and samples that share a key, however many, are
// never copied.
func (r *LatencyRecorder) rankKeys(k int, pair bool) (key, next uint64) {
	// equal counts the samples that share the prefix fixed so far.
	equal := 0
	for shift := 56; shift >= 0; shift -= 8 {
		// Keys whose bits above this byte equal the prefix fixed so far
		// are still in the running; Go's shift by 64 yields 0, so the
		// first pass admits every key.
		high := ^uint64(0) << (shift + 8)
		var hist [256]int
		for p := range r.lat.NumPages() {
			for _, v := range r.lat.Page(p) {
				if x := orderKey(v); x&high == key {
					hist[x>>shift&0xff]++
				}
			}
		}
		d := 0
		for k >= hist[d] {
			k -= hist[d]
			d++
		}
		key |= uint64(d) << shift
		equal = hist[d]
		if equal <= gatherMax {
			return r.sortedRank(key, ^uint64(0)<<shift, k, pair)
		}
	}
	// More than gatherMax samples share the whole key, so the next rank
	// holds the same key unless k is the last of them.
	if !pair || k+1 < equal {
		return key, key
	}
	return key, r.keyAbove(key)
}

// sortedRank finishes rankKeys: it sorts the keys that match prefix under
// mask (at most gatherMax) and returns the k-th of them and, if pair is
// set, the key after it.
func (r *LatencyRecorder) sortedRank(prefix, mask uint64, k int, pair bool) (key, next uint64) {
	var buf [gatherMax]uint64
	cand := buf[:0]
	for p := range r.lat.NumPages() {
		for _, v := range r.lat.Page(p) {
			if x := orderKey(v); x&mask == prefix {
				cand = append(cand, x)
			}
		}
	}
	slices.Sort(cand)
	key = cand[k]
	switch {
	case !pair:
		return key, key
	case k+1 < len(cand):
		return key, cand[k+1]
	}
	return key, r.keyAbove(key)
}

// keyAbove returns the smallest sample key greater than key; one must
// exist.
func (r *LatencyRecorder) keyAbove(key uint64) uint64 {
	next := ^uint64(0)
	for p := range r.lat.NumPages() {
		for _, v := range r.lat.Page(p) {
			if x := orderKey(v); x > key && x < next {
				next = x
			}
		}
	}
	return next
}

// Mean returns the arithmetic mean (0 if empty).
func (r *LatencyRecorder) Mean() float64 {
	n := r.lat.Len()
	if n == 0 {
		return 0
	}
	sum := 0.0
	for p := range r.lat.NumPages() {
		for _, s := range r.lat.Page(p) {
			sum += s
		}
	}
	return sum / float64(n)
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

// GoodputMeter tracks served samples over a virtual-time horizon. Drops
// and SLO violations are counted by the collector; here they only extend
// the horizon.
type GoodputMeter struct {
	Served int // completed within SLO
	start  float64
	end    float64
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

// Drop records a sample dropped or SLO-violated at virtual time t.
func (g *GoodputMeter) Drop(t float64) {
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

// Nanos converts a virtual-seconds timestamp or duration to integer
// virtual nanoseconds. It is the one rounding rule shared by the
// utilization tracker's busy totals and the flame profiler, so the two
// agree to the nanosecond.
func Nanos(x float64) int64 {
	return int64(math.Round(x * 1e9))
}

// busySpan is one contiguous busy interval of a resource in virtual time.
type busySpan struct {
	start, end float64
}

// busySlot is one resource's busy time: the folded sum and the spans a
// query can still clip.
type busySlot struct {
	// done is the recording-order sum of the folded spans' lengths
	// within the window; pending[head:] are the spans not yet folded, in
	// recording order.
	done    float64
	pending []busySpan
	head    int
	// nanos is the unclipped busy total in integer nanoseconds.
	nanos int64
}

// UtilizationTracker records busy intervals per resource so experiments
// can report average GPU utilization over a horizon. Work dispatched near
// the end of a run extends past the measurement horizon, so crediting
// its full duration would count busy time outside [start, end] and
// saturate the reported fraction: Utilization clips each interval to its
// end and sums the clipped lengths in recording order.
//
// Queries must not end before the watermark, the latest interval start
// recorded on any resource (Utilization panics otherwise). An interval
// that ends by the watermark is then never clipped at the high side, so
// its clipped length is fixed: AddBusyAt folds it into a running sum,
// taking each resource's intervals from the head of its pending list so
// the sum is the recording-order partial sum bit for bit. Only intervals
// still in flight at the watermark are kept, and memory is bounded by
// in-flight work, not by the length of the run.
//
// Each resource has a slot, assigned on first sight, so the per-batch
// AddBusyAt indexes a slice instead of hashing the resource's name.
type UtilizationTracker struct {
	slots map[string]int
	// names[i] and busy[i] are slot i's resource and its busy time.
	names     []string
	busy      []busySlot
	since     float64
	watermark float64
}

// NewUtilizationTracker starts tracking at virtual time start.
func NewUtilizationTracker(start float64) *UtilizationTracker {
	return &UtilizationTracker{slots: make(map[string]int), since: start, watermark: math.Inf(-1)}
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
	u.busy = append(u.busy, busySlot{})
	return i
}

// AddBusyAt credits d seconds of busy time, beginning at virtual time
// start, to the resource registered at slot i. It raises the watermark to
// start and folds the slot's leading intervals that end by it.
func (u *UtilizationTracker) AddBusyAt(i int, start, d float64) {
	if d < 0 {
		d = 0
	}
	// A NaN start compares false and never raises the watermark.
	if start > u.watermark {
		u.watermark = start
	}
	s := &u.busy[i]
	span := busySpan{start: start, end: start + d}
	s.nanos += Nanos(span.end) - Nanos(span.start)
	if len(s.pending) == cap(s.pending) && s.head > 0 {
		s.pending = s.pending[:copy(s.pending, s.pending[s.head:])]
		s.head = 0
	}
	s.pending = append(s.pending, span)
	// Written as !(end > watermark) so a NaN-ended span, which adds
	// nothing at any query end, folds at once.
	for s.head < len(s.pending) && !(s.pending[s.head].end > u.watermark) {
		s.done += u.clipped(s.pending[s.head], u.watermark)
		s.head++
	}
	if s.head == len(s.pending) {
		s.pending, s.head = s.pending[:0], 0
	}
}

// clipped returns the length of s's overlap with [u.since, end], or 0.
func (u *UtilizationTracker) clipped(s busySpan, end float64) float64 {
	lo, hi := s.start, s.end
	if lo < u.since {
		lo = u.since
	}
	if hi > end {
		hi = end
	}
	if hi > lo {
		return hi - lo
	}
	return 0
}

// busyWithin sums slot i's spans' overlap with the measurement window
// [u.since, end] in recording order: the folded sum, then each pending
// span clipped to end.
func (u *UtilizationTracker) busyWithin(i int, end float64) float64 {
	s := &u.busy[i]
	total := s.done
	for _, span := range s.pending[s.head:] {
		total += u.clipped(span, end)
	}
	return total
}

// Utilization reports mean busy fraction across all tracked resources over
// [start, end]. Resources that never reported busy time count as idle only
// if they were registered via Register. It panics if end is before the
// watermark, the latest busy interval start recorded: the intervals such a
// query would clip have been folded.
func (u *UtilizationTracker) Utilization(end float64) float64 {
	if end < u.watermark {
		panic(fmt.Sprintf("metrics: Utilization(%v) ends before the latest recorded busy start %v", end, u.watermark))
	}
	horizon := end - u.since
	if horizon <= 0 || len(u.names) == 0 {
		return 0
	}
	// Sum in sorted-name order: float addition is non-associative, and
	// the result must not depend on the order resources registered in.
	sum := 0.0
	for _, name := range u.Resources() {
		frac := u.busyWithin(u.slots[name], end) / horizon
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

// BusyNanos reports one resource's busy time in integer nanoseconds,
// unclipped: the sum over its intervals of Nanos(end) − Nanos(start), the
// ledger side of the flame profiler's exact reconcile. An unknown
// resource has none.
func (u *UtilizationTracker) BusyNanos(name string) int64 {
	i, ok := u.slots[name]
	if !ok {
		return 0
	}
	return u.busy[i].nanos
}
