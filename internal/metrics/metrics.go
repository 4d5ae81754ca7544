// Package metrics collects serving statistics: request latencies, goodput,
// GPU utilization, and dollar cost. All aggregation is exact. Every
// latency sample is retained, in about 6 bytes, so quantiles match the
// paper's box-plot semantics precisely; busy intervals are folded into
// running sums as soon as no admissible utilization query can clip them.
package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
)

// LatencyRecorder accumulates per-request completion latencies (seconds).
// The zero value is ready to use. A nil *LatencyRecorder records nothing
// and reads as empty, so a driver that never reads latencies drops its
// collector's recorder (scheduler.Collector.Lat) instead of keeping about
// 6 B per completion for the whole run.
//
// Every sample is kept, as its order key (orderKey) split in two: the top
// 16 bits pick a bucket and the bucket stores only the low 48, in 6 bytes.
// Latencies under an SLO share a few dozen prefixes, so the prefix costs
// nothing per sample. Observe adds the value to a running sum in record
// order and stages its key; a full staging block spills into the buckets
// in one pass. A bucket's first block doubles from firstLen entries to
// blockLen, then its blocks are blockLen entries carved from arena chunks
// of up to chunkBlocks blocks (96 KB), so the slack is at most a partly
// filled block per bucket plus one chunk, and no stored suffix ever moves
// once in an arena block. Quantile finds the bucket that holds a rank
// from bucket counts, then selects within it by radix; reads allocate
// nothing and change nothing.
type LatencyRecorder struct {
	n   int
	sum float64
	// stage[:staged] are the keys observed since the last spill.
	stage  [stageLen]uint64
	staged int
	// index[p>>8][p&0xff] is 1 + the position in buckets of prefix p's
	// bucket, or 0 before p is first spilled.
	index   [256]*[256]int32
	buckets []bucket
	// free is the unused rest of the newest arena chunk, and chunks
	// counts the chunks allocated.
	free   []suffix
	chunks int
	// retained counts the bytes allocated for buckets, tables and blocks
	// that the recorder still holds.
	retained int
}

// Recorder geometry.
const (
	stageLen    = 256 // keys staged between spills
	blockLen    = 256 // suffixes in a full bucket block (1.5 KB)
	firstLen    = 8   // suffixes in a bucket's first block
	chunkShift  = 6   // a full arena chunk is 1<<chunkShift blocks
	chunkBlocks = 1 << chunkShift
)

// suffix is the low 48 bits of an order key, little-endian.
type suffix [6]byte

// set stores the low 48 bits of key x.
func (s *suffix) set(x uint64) {
	binary.LittleEndian.PutUint32(s[:4], uint32(x))
	binary.LittleEndian.PutUint16(s[4:], uint16(x>>32))
}

// key rebuilds the order key of s under prefix base (the prefix shifted
// into the top 16 bits).
func (s *suffix) key(base uint64) uint64 {
	return base | uint64(binary.LittleEndian.Uint32(s[:4])) | uint64(binary.LittleEndian.Uint16(s[4:]))<<32
}

// bucket holds the suffixes of one key prefix in spill order: full arena
// blocks, then the open tail. While the bucket holds under blockLen
// suffixes blocks is empty and tail is its doubling first block.
type bucket struct {
	blocks []*[blockLen]suffix
	tail   []suffix
}

// count reports the suffixes b holds.
func (b *bucket) count() int { return len(b.blocks)*blockLen + len(b.tail) }

// parts reports how many slices part reads b's suffixes in; a nil
// bucket has none.
func (b *bucket) parts() int {
	if b == nil {
		return 0
	}
	return len(b.blocks) + 1
}

// part returns b's j-th slice of suffixes: a full block, or the tail.
func (b *bucket) part(j int) []suffix {
	if j < len(b.blocks) {
		return b.blocks[j][:]
	}
	return b.tail
}

// Observe records one latency sample. Negative values are clamped to zero:
// they can only arise from floating-point jitter at batch boundaries.
func (r *LatencyRecorder) Observe(lat float64) {
	if r == nil {
		return
	}
	if lat < 0 {
		lat = 0
	}
	r.n++
	r.sum += lat
	r.stage[r.staged] = orderKey(lat)
	r.staged++
	if r.staged == stageLen {
		r.spill()
	}
}

// spill moves the staged keys into their buckets.
func (r *LatencyRecorder) spill() {
	var b *bucket
	last := uint64(1 << 16) // no prefix
	for _, x := range r.stage[:r.staged] {
		// Samples in a row tend to share a prefix; the bucket pointer
		// stays valid until addBucket next adds a bucket.
		if p := x >> 48; p != last {
			if b, last = r.lookup(p), p; b == nil {
				b = r.addBucket(p)
			}
		}
		n := len(b.tail)
		if n == cap(b.tail) {
			r.grow(b)
			n = len(b.tail)
		}
		b.tail = b.tail[:n+1]
		b.tail[n].set(x)
	}
	r.staged = 0
}

// addBucket adds prefix p's bucket, and its index table if p is the
// first prefix with its top byte.
func (r *LatencyRecorder) addBucket(p uint64) *bucket {
	t := r.index[p>>8]
	if t == nil {
		t = new([256]int32)
		r.index[p>>8] = t
		r.retained += 256 * 4
	}
	c := cap(r.buckets)
	r.buckets = append(r.buckets, bucket{})
	r.retained += (cap(r.buckets) - c) * bucketBytes
	t[p&0xff] = int32(len(r.buckets))
	return &r.buckets[len(r.buckets)-1]
}

// Header sizes on a 64-bit host, for RetainedBytes: a block pointer, and
// a bucket's two slice headers.
const (
	ptrBytes    = 8
	bucketBytes = 2 * 3 * ptrBytes
)

// grow makes room in b's full tail: a first block doubles until it would
// reach blockLen, then moves into an arena block; a full arena block
// joins blocks and a fresh one opens.
func (r *LatencyRecorder) grow(b *bucket) {
	switch c := cap(b.tail); {
	case c == blockLen:
		n := cap(b.blocks)
		b.blocks = append(b.blocks, (*[blockLen]suffix)(b.tail))
		r.retained += (cap(b.blocks) - n) * ptrBytes
		b.tail = r.block()
	case 2*c < blockLen:
		t := make([]suffix, len(b.tail), max(2*c, firstLen))
		copy(t, b.tail)
		r.retained += (cap(t) - c) * len(suffix{})
		b.tail = t
	default:
		r.retained -= c * len(suffix{})
		b.tail = append(r.block(), b.tail...)
	}
}

// block carves an empty blockLen-entry block from the newest arena chunk,
// allocating a chunk when it is used up. Chunks double from one block to
// chunkBlocks, so what a small recorder allocates follows what it keeps.
func (r *LatencyRecorder) block() []suffix {
	if len(r.free) == 0 {
		r.free = make([]suffix, blockLen<<min(r.chunks, chunkShift))
		r.retained += len(r.free) * len(suffix{})
		r.chunks++
	}
	blk := r.free[:0:blockLen]
	r.free = r.free[blockLen:]
	return blk
}

// RetainedBytes reports the heap bytes the recorder holds for its samples
// beyond its own fixed size: arena chunks, first blocks, bucket headers
// and index tables.
func (r *LatencyRecorder) RetainedBytes() int {
	if r == nil {
		return 0
	}
	return r.retained
}

// Count reports the number of samples observed.
func (r *LatencyRecorder) Count() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Samples returns a copy of the observations in key order: the order
// sort.Float64s gives, NaNs first and -0 before +0.
func (r *LatencyRecorder) Samples() []float64 {
	if r == nil {
		return nil
	}
	keys := append(make([]uint64, 0, r.n), r.stage[:r.staged]...)
	for p := range uint64(1 << 16) {
		b := r.lookup(p)
		for j := range b.parts() {
			blk := b.part(j)
			for i := range blk {
				keys = append(keys, blk[i].key(p<<48))
			}
		}
	}
	slices.Sort(keys)
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[i] = keyFloat(k)
	}
	return out
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear
// interpolation between closest ranks (the "type 7" estimator NumPy and R
// default to): the quantile position is q·(n−1), and a fractional position
// blends the two neighbouring order statistics. Ranks follow
// sort.Float64s's order, NaNs first. It returns 0 for an empty recorder.
func (r *LatencyRecorder) Quantile(q float64) float64 {
	n := r.Count()
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
// Bucket counts, plus the staged keys, give the prefix that holds rank k.
// Within it the selection is by radix: each pass over the prefix's
// samples histograms the next key byte among those that share the bytes
// fixed so far, and fixes the byte that holds the rank. Once at most
// gatherMax samples share the key so far, one more pass copies their keys
// into a fixed buffer and sorting it finishes the selection. Working
// memory is one histogram and that buffer whatever the count, and samples
// that share a key, however many, are never copied.
func (r *LatencyRecorder) rankKeys(k int, pair bool) (key, next uint64) {
	p, k, equal := r.findPrefix(k)
	b := r.lookup(p)
	key = p << 48
	for shift := 48; ; shift -= 8 {
		if equal <= gatherMax {
			return r.sortedRank(b, key, ^uint64(0)<<shift, k, pair)
		}
		if shift == 0 {
			break
		}
		// Keys whose bits above the next byte equal the key so far are
		// still in the running.
		high := ^uint64(0) << shift
		var hist [256]int
		for j := range b.parts() {
			blk := b.part(j)
			for i := range blk {
				if x := blk[i].key(p << 48); x&high == key {
					hist[x>>(shift-8)&0xff]++
				}
			}
		}
		for _, x := range r.stage[:r.staged] {
			if x&high == key {
				hist[x>>(shift-8)&0xff]++
			}
		}
		key |= uint64(pick(&hist, &k)) << (shift - 8)
		equal = hist[key>>(shift-8)&0xff]
	}
	// More than gatherMax samples share the whole key, so the next rank
	// holds the same key unless k is the last of them.
	if !pair || k+1 < equal {
		return key, key
	}
	return key, r.keyAbove(key)
}

// pick returns the digit whose run in hist holds rank *k and makes *k
// the rank within that run.
func pick(hist *[256]int, k *int) int {
	d := 0
	for *k >= hist[d] {
		*k -= hist[d]
		d++
	}
	return d
}

// findPrefix returns the key prefix that holds the k-th smallest sample,
// the sample's rank among that prefix's, and how many samples share the
// prefix. It histograms the prefix's top byte, then its low byte, from
// bucket counts and the staged keys.
func (r *LatencyRecorder) findPrefix(k int) (p uint64, rank, count int) {
	var hist [256]int
	for hi, t := range r.index {
		if t == nil {
			continue
		}
		for _, i := range t {
			if i != 0 {
				hist[hi] += r.buckets[i-1].count()
			}
		}
	}
	for _, x := range r.stage[:r.staged] {
		hist[x>>56]++
	}
	hi := uint64(pick(&hist, &k))
	hist = [256]int{}
	if t := r.index[hi]; t != nil {
		for lo, i := range t {
			if i != 0 {
				hist[lo] = r.buckets[i-1].count()
			}
		}
	}
	for _, x := range r.stage[:r.staged] {
		if x>>56 == hi {
			hist[x>>48&0xff]++
		}
	}
	lo := pick(&hist, &k)
	return hi<<8 | uint64(lo), k, hist[lo]
}

// lookup returns prefix p's bucket, or nil if p has none.
func (r *LatencyRecorder) lookup(p uint64) *bucket {
	if t := r.index[p>>8]; t != nil && t[p&0xff] != 0 {
		return &r.buckets[t[p&0xff]-1]
	}
	return nil
}

// sortedRank finishes rankKeys: it sorts the keys that match prefix under
// mask (at most gatherMax, all in bucket b or staged) and returns the
// k-th of them and, if pair is set, the key after it.
func (r *LatencyRecorder) sortedRank(b *bucket, prefix, mask uint64, k int, pair bool) (key, next uint64) {
	var buf [gatherMax]uint64
	cand := buf[:0]
	base := prefix &^ (1<<48 - 1)
	for j := range b.parts() {
		blk := b.part(j)
		for i := range blk {
			if x := blk[i].key(base); x&mask == prefix {
				cand = append(cand, x)
			}
		}
	}
	for _, x := range r.stage[:r.staged] {
		if x&mask == prefix {
			cand = append(cand, x)
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
// exist. Among the buckets that is in key's own bucket or else the
// minimum of the next bucket in prefix order.
func (r *LatencyRecorder) keyAbove(key uint64) uint64 {
	next := ^uint64(0)
	for _, x := range r.stage[:r.staged] {
		if x > key && x < next {
			next = x
		}
	}
	for p := key >> 48; p < 1<<16; p++ {
		b := r.lookup(p)
		above := false
		for j := range b.parts() {
			blk := b.part(j)
			for i := range blk {
				if x := blk[i].key(p << 48); x > key {
					above = true
					next = min(next, x)
				}
			}
		}
		if above {
			break
		}
	}
	return next
}

// Mean returns the arithmetic mean (0 if empty): the record-order sum
// of the samples over their count.
func (r *LatencyRecorder) Mean() float64 {
	n := r.Count()
	if n == 0 {
		return 0
	}
	return r.sum / float64(n)
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
