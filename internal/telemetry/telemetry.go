// Package telemetry records what the end-of-run aggregates cannot show: a
// virtual-time span per unit of work as a request flows through the
// serving stack — queue wait in the batcher, per-batch execution on each
// split's GPU (with batch size and GPU kind), inter-split activation
// transfer, and survivor fusion in the merge queues — plus O(1) streaming
// counters and histograms derived from the same stream (completion
// latency, per-split batch size). Per-GPU occupancy timelines fall out of
// the execute spans' tracks.
//
// The tracer obeys the simulator's invariants: every timestamp is virtual
// (stamped by the caller from the sim clock — the package never reads any
// clock), recording happens synchronously on the event loop's goroutine,
// and the span counters must reconcile with the audit ledger's terminal
// counts (Reconcile), so tracing cannot silently disagree with the
// conservation audit.
//
// Like audit.Ledger, a nil *Tracer is valid and records nothing: call
// sites thread telemetry unconditionally and pay nothing when it is off.
package telemetry

import (
	"fmt"
	"sort"

	"e3/internal/audit"
	"e3/internal/metrics"
	"e3/internal/store"
)

// Kind classifies a span.
type Kind uint8

const (
	// KindExecute is one batch running a split (or the whole model) on a
	// GPU; its track is the device ID, so execute spans form per-GPU
	// occupancy timelines.
	KindExecute Kind = iota
	// KindQueueWait is the time a dispatch batch's head waited in the
	// dynamic batcher's queue.
	KindQueueWait
	// KindTransfer is an inter-split activation transfer.
	KindTransfer
	// KindFuse is the time a merge-queue head waited for its survivor
	// batch to be re-formed (fusion).
	KindFuse
	// KindReplan is a control-plane replan instant (zero-duration span on
	// the "control-plane" track), so Perfetto shows plan changes against
	// the GPU occupancy timelines.
	KindReplan
	// KindPlanCache marks a replan that was answered from the cross-window
	// plan cache instead of a fresh search (zero-duration span on the
	// "control-plane" track, always paired with a KindReplan span at the
	// same instant).
	KindPlanCache
	// KindSLOBurn marks a scheduling window whose error-budget burn rate
	// crossed the configured threshold (zero-duration span on the
	// "control-plane" track; Batch carries the window index).
	KindSLOBurn
)

// String names the kind; it doubles as the Chrome trace "cat" field.
func (k Kind) String() string {
	switch k {
	case KindExecute:
		return "execute"
	case KindQueueWait:
		return "queue-wait"
	case KindTransfer:
		return "transfer"
	case KindFuse:
		return "fuse"
	case KindReplan:
		return "replan"
	case KindPlanCache:
		return "plan-cache"
	case KindSLOBurn:
		return "slo-burn"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Span is one timed interval on a named track, in virtual seconds.
type Span struct {
	// Track groups spans into one timeline row: the GPU device ID for
	// execute spans, a logical lane ("batcher", "xfer:s0->s1", "merge:s1")
	// otherwise.
	Track string
	Kind  Kind
	// Start and End are virtual times; End ≥ Start always.
	Start, End float64
	// Stage is the split index the work belongs to (-1 when not split
	// work, e.g. batcher queue wait).
	Stage int
	// Batch is the number of samples the span carries.
	Batch int
	// GPU is the device kind for execute spans ("V100"), empty otherwise.
	GPU string
}

// Duration is the span's extent in virtual seconds.
func (s Span) Duration() float64 { return s.End - s.Start }

// Histogram bucket layouts. Latency covers 100 µs – 10 s; batch sizes
// cover 1 – 4096 in powers of two. Both are fixed so the /metrics
// endpoint stays O(buckets) regardless of run length.
const (
	latHistLo, latHistHi = 1e-4, 10.0
	latHistBuckets       = 40
	batchHistLo          = 1
	batchHistHi          = 4096
	batchHistBuckets     = 13
)

// Tracer records spans (optionally into a bounded ring) plus streaming
// counters and histograms. It is not safe for concurrent use: like the
// ledger, all recording happens on the event loop's goroutine.
type Tracer struct {
	// spans keeps the recorded spans: the most recent capacity of them for
	// a ring, every one for trace export (capacity 0).
	spans store.Ring[Span]

	arrived, completed, dropped uint64
	dropsBy                     map[string]uint64

	lat *metrics.Histogram

	// perStage[stages.Slot(s)] holds stage s's batch-size histogram and
	// track names, so Execute, Transfer and Fuse never hash a stage.
	//
	// Ownership: these — like every field above — are mutated without
	// synchronization on the contract that one event loop owns the
	// tracer. A tracer must never be shared across engines; the fleet
	// tier gives each shard its own tracer for exactly this reason.
	stages   StageIndex
	perStage []stageTrack
}

// stageTrack is one stage's tracer state: its batch-size histogram (nil
// until a batch executes there) and the track names its transfer and
// fusion spans ride. Transfer and Fuse fire once per batch, and formatting
// the same handful of strings millions of times was measurable on
// hour-long traces, so each name is formatted once.
type stageTrack struct {
	batch       *metrics.Histogram
	xfer, merge string
}

// New returns an unbounded tracer, for full-run trace export.
func New() *Tracer { return newTracer(0) }

// NewRing returns a tracer that retains only the most recent capacity
// spans — the live-serving configuration, where memory must not grow with
// uptime. Counters and histograms still cover the full run.
func NewRing(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return newTracer(capacity)
}

func newTracer(capacity int) *Tracer {
	return &Tracer{
		spans:   store.NewRing[Span](capacity),
		dropsBy: make(map[string]uint64),
		lat:     metrics.NewLogHistogram(latHistLo, latHistHi, latHistBuckets),
	}
}

// stage returns the state of stage s, adding it at first sight.
func (t *Tracer) stage(s int) *stageTrack {
	i := t.stages.Slot(s)
	if i == len(t.perStage) {
		t.perStage = append(t.perStage, stageTrack{})
	}
	return &t.perStage[i]
}

// Record stores one span. Spans whose End precedes their Start are
// clamped to zero duration — they can only arise from float jitter at
// scheduling boundaries, mirroring LatencyRecorder's clamp.
//
//e3:hotpath every span of every observed batch lands here; the ring overwrites in place
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	if s.End < s.Start {
		s.End = s.Start
	}
	t.spans.Push(s)
}

// Execute records one batch running stage on the given device track.
func (t *Tracer) Execute(track, gpuKind string, stage, batch int, start, end float64) {
	if t == nil {
		return
	}
	t.Record(Span{Track: track, Kind: KindExecute, Start: start, End: end,
		Stage: stage, Batch: batch, GPU: gpuKind})
	st := t.stage(stage)
	if st.batch == nil {
		st.batch = metrics.NewLogHistogram(batchHistLo, batchHistHi, batchHistBuckets)
	}
	st.batch.Observe(float64(batch))
}

// QueueWait records a dispatched batch's head wait in the batcher queue.
func (t *Tracer) QueueWait(batch int, start, end float64) {
	t.Record(Span{Track: "batcher", Kind: KindQueueWait, Start: start, End: end,
		Stage: -1, Batch: batch})
}

// Transfer records an inter-split activation transfer out of fromStage.
func (t *Tracer) Transfer(fromStage, batch int, start, end float64) {
	if t == nil {
		return
	}
	st := t.stage(fromStage)
	if st.xfer == "" {
		st.xfer = fmt.Sprintf("xfer:s%d->s%d", fromStage, fromStage+1)
	}
	t.Record(Span{Track: st.xfer,
		Kind: KindTransfer, Start: start, End: end, Stage: fromStage, Batch: batch})
}

// Fuse records a merge-queue head's wait for survivor batch re-formation
// at stage.
func (t *Tracer) Fuse(stage, batch int, start, end float64) {
	if t == nil {
		return
	}
	st := t.stage(stage)
	if st.merge == "" {
		st.merge = fmt.Sprintf("merge:s%d", stage)
	}
	t.Record(Span{Track: st.merge, Kind: KindFuse,
		Start: start, End: end, Stage: stage, Batch: batch})
}

// Replan records a control-plane replan instant for scheduling window w:
// a zero-duration span on the "control-plane" track, visible in Perfetto
// alongside the per-GPU occupancy timelines. Batch carries the window
// index; Stage is -1 (not split work).
func (t *Tracer) Replan(window int, at float64) {
	t.Record(Span{Track: "control-plane", Kind: KindReplan,
		Start: at, End: at, Stage: -1, Batch: window})
}

// PlanCacheHit records that window w's replan reused a cached plan rather
// than searching. It rides the control-plane track next to the window's
// KindReplan span so cached and searched replans are distinguishable in
// Perfetto and in span queries.
func (t *Tracer) PlanCacheHit(window int, at float64) {
	t.Record(Span{Track: "control-plane", Kind: KindPlanCache,
		Start: at, End: at, Stage: -1, Batch: window})
}

// SLOBurn records an error-budget burn-rate threshold crossing in
// scheduling window w: a zero-duration span on the "control-plane" track,
// next to the window's replan instants, so budget breaches are visible
// against the GPU occupancy timelines. Batch carries the window index;
// Stage is -1 (not split work).
func (t *Tracer) SLOBurn(window int, at float64) {
	t.Record(Span{Track: "control-plane", Kind: KindSLOBurn,
		Start: at, End: at, Stage: -1, Batch: window})
}

// Arrive counts a sample minted by the generator.
func (t *Tracer) Arrive() {
	if t == nil {
		return
	}
	t.arrived++
}

// Complete counts a finished sample and observes its completion latency.
func (t *Tracer) Complete(latency float64) {
	if t == nil {
		return
	}
	t.completed++
	t.lat.Observe(latency)
}

// Drop counts a sample shed without execution, by reason.
func (t *Tracer) Drop(reason string) {
	if t == nil {
		return
	}
	t.dropped++
	t.dropsBy[reason]++
}

// Spans returns the retained spans oldest-first (a copy). For a wrapped
// ring this is the most recent Capacity spans in recording order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans.AppendTo(make([]Span, 0, t.spans.Len()))
}

// Total reports spans recorded over the tracer's lifetime, including ones
// a ring has since evicted.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return uint64(t.spans.Total())
}

// Evicted reports how many spans the ring has discarded.
func (t *Tracer) Evicted() uint64 {
	if t == nil {
		return 0
	}
	return uint64(t.spans.Evicted())
}

// Counts reports the lifecycle counters: samples minted, completed, and
// dropped.
func (t *Tracer) Counts() (arrived, completed, dropped uint64) {
	if t == nil {
		return 0, 0, 0
	}
	return t.arrived, t.completed, t.dropped
}

// DropsByReason returns the per-reason drop counters (the live map; do
// not mutate).
func (t *Tracer) DropsByReason() map[string]uint64 {
	if t == nil {
		return nil
	}
	return t.dropsBy
}

// LatencyHist returns the streaming completion-latency histogram (nil for
// a nil tracer).
func (t *Tracer) LatencyHist() *metrics.Histogram {
	if t == nil {
		return nil
	}
	return t.lat
}

// BatchHist returns the batch-size histogram for one stage (nil if the
// stage never executed).
func (t *Tracer) BatchHist(stage int) *metrics.Histogram {
	if t == nil {
		return nil
	}
	if i := t.stages.Lookup(stage); i >= 0 {
		return t.perStage[i].batch
	}
	return nil
}

// Stages returns the stage indices that have batch histograms, ascending.
func (t *Tracer) Stages() []int {
	if t == nil {
		return nil
	}
	out := make([]int, 0, t.stages.Len())
	for _, i := range t.stages.Sorted() {
		if t.perStage[i].batch != nil {
			out = append(out, t.stages.Stage(i))
		}
	}
	return out
}

// Reconcile cross-checks the tracer's lifecycle counters against a
// verified audit report, appending any mismatch to the report's
// violations: telemetry that disagrees with the conservation ledger is a
// recording bug, and -audit must fail on it. A nil tracer reconciles
// vacuously.
func (t *Tracer) Reconcile(rep *audit.Report) {
	if t == nil || rep == nil {
		return
	}
	if int(t.arrived) != rep.Samples {
		rep.Violate("telemetry: %d arrive events, ledger tracked %d samples", t.arrived, rep.Samples)
	}
	if int(t.completed) != rep.Completed {
		rep.Violate("telemetry: %d completion events, ledger completed %d", t.completed, rep.Completed)
	}
	if int(t.dropped) != rep.Dropped {
		rep.Violate("telemetry: %d drop events, ledger dropped %d", t.dropped, rep.Dropped)
	}
	// Walk reasons in sorted order, not map order: violations are report
	// output and must be byte-identical run to run.
	reasons := make([]string, 0, len(t.dropsBy))
	for reason := range t.dropsBy {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		n := t.dropsBy[reason]
		if int(n) != rep.ByReason[audit.Reason(reason)] {
			rep.Violate("telemetry: %d drops for reason %q, ledger has %d", n, reason, rep.ByReason[audit.Reason(reason)])
		}
	}
}
