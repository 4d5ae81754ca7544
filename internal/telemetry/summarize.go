package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// SplitSummary aggregates one split's execute spans.
type SplitSummary struct {
	Stage int
	// Batches is the number of execute spans; Samples the sum of their
	// batch sizes.
	Batches int
	Samples int
	// Tracks is the number of distinct GPUs that served the split.
	Tracks int
	// Busy is total execute time across those GPUs (GPU-seconds).
	Busy float64
	// Util is Busy / (horizon × Tracks): the mean busy fraction of the
	// split's GPUs over the trace horizon.
	Util float64
	// Bubble is the complementary idle time (GPU-seconds): horizon ×
	// Tracks − Busy. This is the quantity E3's pipelining claims to keep
	// near zero.
	Bubble float64
	// MeanBatch is Samples / Batches.
	MeanBatch float64
	// BatchHist counts execute spans by exact batch size.
	BatchHist map[int]int
}

// LaneSummary aggregates one non-execute span kind.
type LaneSummary struct {
	Count int
	Total float64
}

// Mean is the average span duration (0 if none).
func (l LaneSummary) Mean() float64 {
	if l.Count == 0 {
		return 0
	}
	return l.Total / float64(l.Count)
}

// WaitSummary is the queue-wait distribution ahead of one split: the
// batcher queue for split 0, the merge (fusion) queue for later splits.
type WaitSummary struct {
	Split int
	Count int
	// P50, P90, P99, and Max are nearest-rank percentiles of the wait
	// durations (seconds).
	P50, P90, P99, Max float64
}

// Summary is what e3-bench -trace-out reports about its run's timeline:
// the horizon, per-split occupancy, and the overhead lanes.
type Summary struct {
	// Start and End bound every span in the trace; Horizon = End − Start.
	Start, End float64
	// GPUTracks counts distinct execute tracks (one per GPU).
	GPUTracks int
	Splits    []SplitSummary
	QueueWait LaneSummary
	Transfer  LaneSummary
	Fuse      LaneSummary
	// Waits is the per-split queue-wait percentile table: split 0 is the
	// dynamic batcher's queue (KindQueueWait spans); split s>0 is the
	// merge queue feeding that split (its KindFuse spans).
	Waits []WaitSummary
}

// Horizon is the trace's virtual-time extent.
func (s Summary) Horizon() float64 { return s.End - s.Start }

// Summarize reduces a span stream to per-split occupancy statistics. The
// horizon is the extent of all spans; each split's utilization denominator
// is that horizon times the number of GPUs that served the split.
func Summarize(spans []Span) Summary {
	var sum Summary
	if len(spans) == 0 {
		return sum
	}
	sum.Start, sum.End = spans[0].Start, spans[0].End
	type splitAcc struct {
		batches, samples int
		busy             float64
		tracks           map[string]bool
		hist             map[int]int
	}
	splits := make(map[int]*splitAcc)
	gpuTracks := make(map[string]bool)
	waitBy := make(map[int][]float64)
	for _, s := range spans {
		if s.Start < sum.Start {
			sum.Start = s.Start
		}
		if s.End > sum.End {
			sum.End = s.End
		}
		switch s.Kind {
		case KindExecute:
			gpuTracks[s.Track] = true
			acc := splits[s.Stage]
			if acc == nil {
				acc = &splitAcc{tracks: make(map[string]bool), hist: make(map[int]int)}
				splits[s.Stage] = acc
			}
			acc.batches++
			acc.samples += s.Batch
			acc.busy += s.Duration()
			acc.tracks[s.Track] = true
			acc.hist[s.Batch]++
		case KindQueueWait:
			sum.QueueWait.Count++
			sum.QueueWait.Total += s.Duration()
			waitBy[0] = append(waitBy[0], s.Duration())
		case KindTransfer:
			sum.Transfer.Count++
			sum.Transfer.Total += s.Duration()
		case KindFuse:
			sum.Fuse.Count++
			sum.Fuse.Total += s.Duration()
			waitBy[s.Stage] = append(waitBy[s.Stage], s.Duration())
		}
	}
	sum.GPUTracks = len(gpuTracks)
	horizon := sum.Horizon()
	stages := make([]int, 0, len(splits))
	for st := range splits {
		stages = append(stages, st)
	}
	sort.Ints(stages)
	for _, st := range stages {
		acc := splits[st]
		ss := SplitSummary{
			Stage:     st,
			Batches:   acc.batches,
			Samples:   acc.samples,
			Tracks:    len(acc.tracks),
			Busy:      acc.busy,
			BatchHist: acc.hist,
		}
		if acc.batches > 0 {
			ss.MeanBatch = float64(acc.samples) / float64(acc.batches)
		}
		if horizon > 0 && ss.Tracks > 0 {
			capacity := horizon * float64(ss.Tracks)
			ss.Util = ss.Busy / capacity
			if ss.Util > 1 {
				ss.Util = 1
			}
			ss.Bubble = capacity - ss.Busy
			if ss.Bubble < 0 {
				ss.Bubble = 0
			}
		}
		sum.Splits = append(sum.Splits, ss)
	}
	waitSplits := make([]int, 0, len(waitBy))
	for st := range waitBy {
		waitSplits = append(waitSplits, st)
	}
	sort.Ints(waitSplits)
	for _, st := range waitSplits {
		durs := waitBy[st]
		sort.Float64s(durs)
		sum.Waits = append(sum.Waits, WaitSummary{
			Split: st,
			Count: len(durs),
			P50:   nearestRank(durs, 0.50),
			P90:   nearestRank(durs, 0.90),
			P99:   nearestRank(durs, 0.99),
			Max:   durs[len(durs)-1],
		})
	}
	return sum
}

// nearestRank is the nearest-rank percentile of an ascending-sorted
// non-empty slice: the smallest value with at least p of the mass at or
// below it.
func nearestRank(sorted []float64, p float64) float64 {
	idx := int(p*float64(len(sorted))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// BubbleShares decomposes one split's idle (bubble) time by cause, in
// virtual nanoseconds. It is produced by the flame fold
// (flame.SummarizeBubbles); the type lives here so the summary printer
// can consume it without an import cycle.
type BubbleShares struct {
	QueueStarvedNanos    int64
	TransferBlockedNanos int64
	FuseBlockedNanos     int64
	DrainedNanos         int64
	IdleNanos            int64
}

// Total is the split's classified bubble time.
func (b BubbleShares) Total() int64 {
	return b.QueueStarvedNanos + b.TransferBlockedNanos + b.FuseBlockedNanos +
		b.DrainedNanos + b.IdleNanos
}

// share is a cause's fraction of the split's bubble time, as a percentage.
func (b BubbleShares) share(part int64) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(part) / float64(t)
}

// PrintWithTaxonomy renders the summary table. Each split's idle time is
// broken down by cause into the starv/xfer/fuse/drain/idle columns (% of
// that split's bubble time), taken from bubbles: the run's flame fold
// (flame.SummarizeBubbles).
func (s Summary) PrintWithTaxonomy(w io.Writer, bubbles map[int]BubbleShares) {
	fmt.Fprintf(w, "trace: horizon %.3fs (t=%.3f..%.3f), %d GPU track(s)\n",
		s.Horizon(), s.Start, s.End, s.GPUTracks)
	fmt.Fprintf(w, "  %-6s %-8s %-8s %-6s %-10s %-7s %-7s %-6s %-6s %-6s %-6s %-10s %s\n",
		"split", "batches", "samples", "gpus", "busy(s)", "util",
		"starv%", "xfer%", "fuse%", "drain%", "idle%", "meanbatch", "batch histogram")
	for _, sp := range s.Splits {
		b := bubbles[sp.Stage]
		fmt.Fprintf(w, "  %-6d %-8d %-8d %-6d %-10.3f %-7.1f %-7.1f %-6.1f %-6.1f %-6.1f %-6.1f %-10.2f %s\n",
			sp.Stage, sp.Batches, sp.Samples, sp.Tracks, sp.Busy, sp.Util*100,
			b.share(b.QueueStarvedNanos), b.share(b.TransferBlockedNanos),
			b.share(b.FuseBlockedNanos), b.share(b.DrainedNanos), b.share(b.IdleNanos),
			sp.MeanBatch, formatBatchHist(sp.BatchHist))
	}
	fmt.Fprintf(w, "  queue-wait: n=%d total=%.3fs mean=%.1fms\n",
		s.QueueWait.Count, s.QueueWait.Total, s.QueueWait.Mean()*1e3)
	fmt.Fprintf(w, "  transfer:   n=%d total=%.3fs mean=%.1fms\n",
		s.Transfer.Count, s.Transfer.Total, s.Transfer.Mean()*1e3)
	fmt.Fprintf(w, "  fusion:     n=%d total=%.3fs mean=%.1fms\n",
		s.Fuse.Count, s.Fuse.Total, s.Fuse.Mean()*1e3)
	if len(s.Waits) > 0 {
		fmt.Fprintln(w, "  queue-wait percentiles (split 0 = batcher queue, split s>0 = merge queue):")
		for _, ws := range s.Waits {
			fmt.Fprintf(w, "    split %-3d n=%-7d p50=%.2fms p90=%.2fms p99=%.2fms max=%.2fms\n",
				ws.Split, ws.Count, ws.P50*1e3, ws.P90*1e3, ws.P99*1e3, ws.Max*1e3)
		}
	}
}

// formatBatchHist renders "1:12 4:3 8:960" with sizes ascending.
func formatBatchHist(hist map[int]int) string {
	sizes := make([]int, 0, len(hist))
	for b := range hist {
		sizes = append(sizes, b)
	}
	sort.Ints(sizes)
	parts := make([]string, len(sizes))
	for i, b := range sizes {
		parts[i] = fmt.Sprintf("%d:%d", b, hist[b])
	}
	return strings.Join(parts, " ")
}
