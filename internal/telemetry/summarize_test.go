package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// summarySample: 2 GPUs over a 10-second horizon. Split 0 runs on both
// GPUs (busy 6+4 = 10 GPU-seconds of a 20 GPU-second capacity = 50%
// util, 10s bubble); split 1 runs on one GPU (busy 2 of 10 = 20%).
func summarySample() []Span {
	return []Span{
		{Track: "g0", Kind: KindExecute, Start: 0, End: 6, Stage: 0, Batch: 8, GPU: "V100"},
		{Track: "g1", Kind: KindExecute, Start: 1, End: 5, Stage: 0, Batch: 8, GPU: "V100"},
		{Track: "g1", Kind: KindExecute, Start: 6, End: 8, Stage: 1, Batch: 4, GPU: "V100"},
		{Track: "batcher", Kind: KindQueueWait, Start: 0, End: 1, Stage: -1, Batch: 8},
		{Track: "batcher", Kind: KindQueueWait, Start: 2, End: 5, Stage: -1, Batch: 8},
		{Track: "xfer:s0->s1", Kind: KindTransfer, Start: 5, End: 5.5, Stage: 0, Batch: 4},
		{Track: "merge:s1", Kind: KindFuse, Start: 5.5, End: 10, Stage: 1, Batch: 4},
	}
}

func TestSummarize(t *testing.T) {
	sum := Summarize(summarySample())
	if sum.Start != 0 || sum.End != 10 {
		t.Fatalf("horizon = [%v, %v], want [0, 10]", sum.Start, sum.End)
	}
	if sum.GPUTracks != 2 {
		t.Fatalf("GPUTracks = %d, want 2", sum.GPUTracks)
	}
	if len(sum.Splits) != 2 {
		t.Fatalf("got %d splits, want 2", len(sum.Splits))
	}

	s0 := sum.Splits[0]
	if s0.Stage != 0 || s0.Batches != 2 || s0.Samples != 16 || s0.Tracks != 2 {
		t.Fatalf("split 0 = %+v", s0)
	}
	if !approx(s0.Busy, 10) || !approx(s0.Util, 0.5) || !approx(s0.Bubble, 10) {
		t.Fatalf("split 0 occupancy: busy=%v util=%v bubble=%v", s0.Busy, s0.Util, s0.Bubble)
	}
	if !approx(s0.MeanBatch, 8) || s0.BatchHist[8] != 2 {
		t.Fatalf("split 0 batches: mean=%v hist=%v", s0.MeanBatch, s0.BatchHist)
	}

	s1 := sum.Splits[1]
	if s1.Stage != 1 || s1.Tracks != 1 || !approx(s1.Busy, 2) || !approx(s1.Util, 0.2) || !approx(s1.Bubble, 8) {
		t.Fatalf("split 1 = %+v", s1)
	}

	if sum.QueueWait.Count != 2 || !approx(sum.QueueWait.Total, 4) || !approx(sum.QueueWait.Mean(), 2) {
		t.Fatalf("queue-wait lane = %+v", sum.QueueWait)
	}
	if sum.Transfer.Count != 1 || !approx(sum.Transfer.Total, 0.5) {
		t.Fatalf("transfer lane = %+v", sum.Transfer)
	}
	if sum.Fuse.Count != 1 || !approx(sum.Fuse.Total, 4.5) {
		t.Fatalf("fuse lane = %+v", sum.Fuse)
	}

	// Per-split queue-wait percentiles: split 0 folds the batcher-queue
	// spans (durations 1 and 3), split 1 its merge-queue span (4.5).
	if len(sum.Waits) != 2 {
		t.Fatalf("got %d wait rows, want 2: %+v", len(sum.Waits), sum.Waits)
	}
	w0 := sum.Waits[0]
	if w0.Split != 0 || w0.Count != 2 || !approx(w0.P50, 1) || !approx(w0.P90, 3) || !approx(w0.P99, 3) || !approx(w0.Max, 3) {
		t.Fatalf("split-0 waits = %+v", w0)
	}
	w1 := sum.Waits[1]
	if w1.Split != 1 || w1.Count != 1 || !approx(w1.P50, 4.5) || !approx(w1.P99, 4.5) {
		t.Fatalf("split-1 waits = %+v", w1)
	}
}

func TestNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.50, 5}, {0.90, 9}, {0.99, 10}, {1.0, 10}, {0.01, 1}} {
		if got := nearestRank(sorted, tc.p); got != tc.want {
			t.Fatalf("nearestRank(p=%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := nearestRank([]float64{7}, 0.5); got != 7 {
		t.Fatalf("single-element percentile = %v, want 7", got)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	sum := Summarize(nil)
	if sum.Horizon() != 0 || sum.GPUTracks != 0 || len(sum.Splits) != 0 {
		t.Fatalf("empty summary not zero: %+v", sum)
	}
	var buf bytes.Buffer
	sum.PrintWithTaxonomy(&buf, nil) // must not panic
}

func TestSummarizeUtilClamped(t *testing.T) {
	// Overlapping spans on one track can push busy past capacity; util
	// must clamp to 1 and bubble to 0.
	spans := []Span{
		{Track: "g0", Kind: KindExecute, Start: 0, End: 10, Stage: 0, Batch: 1},
		{Track: "g0", Kind: KindExecute, Start: 0, End: 10, Stage: 0, Batch: 1},
	}
	sum := Summarize(spans)
	s0 := sum.Splits[0]
	if s0.Util != 1 || s0.Bubble != 0 {
		t.Fatalf("util=%v bubble=%v, want clamped to 1 and 0", s0.Util, s0.Bubble)
	}
}

func TestSummaryPrint(t *testing.T) {
	var buf bytes.Buffer
	// Split 0's 10 s of bubble: 3/4 starved, 1/4 drained; split 1 has no
	// entry and prints zero shares.
	bubbles := map[int]BubbleShares{0: {QueueStarvedNanos: 7.5e9, DrainedNanos: 2.5e9}}
	Summarize(summarySample()).PrintWithTaxonomy(&buf, bubbles)
	out := buf.String()
	for _, want := range []string{
		"horizon 10.000s",
		"starv%  xfer%  fuse%  drain% idle%",
		"50.0    75.0    0.0    0.0    25.0   0.0    8.00",
		"20.0    0.0     0.0    0.0    0.0    0.0    4.00",
		"2 GPU track(s)",
		"8:2",         // split-0 batch histogram
		"queue-wait:", // lanes present
		"mean=2000.0ms",
		"queue-wait percentiles",
		"p99=3000.00ms", // split-0 batcher-queue tail
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary output missing %q:\n%s", want, out)
		}
	}
}

func TestTracerSpansFeedSummarize(t *testing.T) {
	tr := New()
	tr.Execute("g0", "V100", 0, 8, 0, 1)
	tr.Execute("g0", "V100", 1, 4, 1, 1.5)
	tr.QueueWait(8, 0, 0.25)
	sum := Summarize(tr.Spans())
	if sum.GPUTracks != 1 || len(sum.Splits) != 2 || sum.QueueWait.Count != 1 {
		t.Fatalf("tracer -> summary wiring broken: %+v", sum)
	}
}
