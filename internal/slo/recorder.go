package slo

// The black-box flight recorder: a bounded, always-on view over the
// subsystems that already retain recent state — the span tracer's ring,
// the plan-diff ring, the forecast stats, the lifecycle ledger's O(1)
// totals, the error budget, and the attribution aggregates. When an audit
// violation, an SLO burn-rate breach, or an engine abort fires, Trigger
// snapshots them all into one deterministic JSON bundle, so the diagnosis
// of a failed run never depends on having re-run it with extra flags.

import (
	"encoding/json"
	"io"

	"e3/internal/audit"
	"e3/internal/forecast"
	"e3/internal/optimizer"
	"e3/internal/store"
	"e3/internal/telemetry"
)

// Trigger reasons. Drivers may pass their own strings; these are the ones
// the replan loop fires.
const (
	TriggerAuditViolation = "audit-violation"
	TriggerSLOBurn        = "slo-burn-rate"
	TriggerEngineAbort    = "engine-abort"
)

const (
	// defaultBundleSpans bounds spans per bundle when MaxSpans is unset.
	defaultBundleSpans = 512
	// maxBundleDiffs bounds retained plan diffs per bundle.
	maxBundleDiffs = 8
	// maxTriggerLog bounds the recorder's recent-trigger log.
	maxTriggerLog = 32
)

// TriggerEvent is one recorded trigger.
type TriggerEvent struct {
	Seq    int    `json:"seq"`
	Reason string `json:"reason"`
	Detail string `json:"detail,omitempty"`
	// At is the virtual time the trigger fired.
	At float64 `json:"virtual_time_s"`
}

// BundleSpan is a span rendered for the bundle (kind as a name, explicit
// field names — the bundle is a diagnostic document, not a wire format).
type BundleSpan struct {
	Track string  `json:"track"`
	Kind  string  `json:"kind"`
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
	Stage int     `json:"stage"`
	Batch int     `json:"batch"`
	GPU   string  `json:"gpu,omitempty"`
}

// LedgerSnapshot is the ledger's population-exact totals at trigger time.
type LedgerSnapshot struct {
	Arrived   int            `json:"arrived"`
	Completed int            `json:"completed"`
	Dropped   int            `json:"dropped"`
	ByReason  map[string]int `json:"by_reason"`
}

// ForecastSnapshot is the estimator's accuracy telemetry at trigger time.
type ForecastSnapshot struct {
	Windows              int     `json:"windows"`
	MAE                  float64 `json:"mae"`
	MAPE                 float64 `json:"mape"`
	ClampHits            int     `json:"clamp_hits"`
	FitFailures          int     `json:"fit_failures"`
	MonotoneFixes        int     `json:"monotone_fixes"`
	PersistenceFallbacks int     `json:"persistence_fallbacks"`
}

// Bundle is one diagnostic dump. Every map it contains marshals with
// sorted keys and every slice has a deterministic order, so identical
// runs produce byte-identical bundles.
type Bundle struct {
	Trigger  TriggerEvent   `json:"trigger"`
	Triggers []TriggerEvent `json:"recent_triggers"`

	// Spans is the tail of the tracer's retained spans (oldest first);
	// SpansTotal/SpansDropped report lifetime recording and what the
	// bundle's bound plus ring eviction discarded.
	Spans        []BundleSpan `json:"spans"`
	SpansTotal   uint64       `json:"spans_total"`
	SpansDropped uint64       `json:"spans_dropped"`

	// PlanDiffs is the tail of the plan-diff ring (oldest first, bounded).
	PlanDiffs []optimizer.PlanDiff `json:"plan_diffs"`

	Forecast    *ForecastSnapshot `json:"forecast,omitempty"`
	Ledger      *LedgerSnapshot   `json:"ledger,omitempty"`
	Budget      *BudgetSnapshot   `json:"slo_budget,omitempty"`
	Attribution *Dump             `json:"attribution,omitempty"`
}

// WriteJSON renders the bundle as indented JSON.
func (b *Bundle) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// Recorder snapshots the attached sources into bundles on trigger. All
// source fields are optional; nil sources contribute nothing. Not safe
// for concurrent use (event-loop goroutine only); a nil *Recorder is
// valid and records nothing.
type Recorder struct {
	// Spans is the run's tracer — commonly a bounded ring, which is what
	// makes the recorder always-on at fixed memory.
	Spans    *telemetry.Tracer
	Diffs    *optimizer.DiffRing
	Forecast *forecast.Stats
	Ledger   *audit.Ledger
	Budget   *Budget
	Attr     *Attribution

	// MaxSpans bounds spans per bundle (≤0 takes defaultBundleSpans).
	MaxSpans int

	// triggers logs the most recent maxTriggerLog triggers; its push
	// count numbers them.
	triggers store.Ring[TriggerEvent]
	last     *Bundle
}

// Trigger snapshots every attached source into a bundle, records the
// trigger, and returns the bundle (nil for a nil recorder).
func (r *Recorder) Trigger(reason, detail string, at float64) *Bundle {
	if r == nil {
		return nil
	}
	if r.triggers.Total() == 0 {
		r.triggers = store.NewRing[TriggerEvent](maxTriggerLog)
	}
	ev := TriggerEvent{Seq: r.triggers.Total() + 1, Reason: reason, Detail: detail, At: at}
	r.triggers.Push(ev)

	b := &Bundle{Trigger: ev, Triggers: r.triggers.AppendTo(nil)}
	r.snapshotSpans(b)
	if r.Diffs != nil {
		diffs := r.Diffs.Items()
		if len(diffs) > maxBundleDiffs {
			diffs = diffs[len(diffs)-maxBundleDiffs:]
		}
		b.PlanDiffs = append(b.PlanDiffs, diffs...)
	}
	if r.Forecast != nil {
		b.Forecast = &ForecastSnapshot{
			Windows:              r.Forecast.Windows(),
			MAE:                  r.Forecast.MAE(),
			MAPE:                 r.Forecast.MAPE(),
			ClampHits:            r.Forecast.ClampHits(),
			FitFailures:          r.Forecast.FitFailures(),
			MonotoneFixes:        r.Forecast.MonotoneFixes(),
			PersistenceFallbacks: r.Forecast.PersistenceFallbacks(),
		}
	}
	if r.Ledger != nil {
		arrived, completed, dropped := r.Ledger.Totals()
		ls := &LedgerSnapshot{Arrived: arrived, Completed: completed, Dropped: dropped,
			ByReason: make(map[string]int)}
		for reason, n := range r.Ledger.DropBreakdown() {
			ls.ByReason[string(reason)] = n
		}
		b.Ledger = ls
	}
	b.Budget = r.Budget.Snapshot()
	if r.Attr != nil {
		b.Attribution = r.Attr.Dump()
	}
	r.last = b
	return b
}

func (r *Recorder) snapshotSpans(b *Bundle) {
	if r.Spans == nil {
		return
	}
	max := r.MaxSpans
	if max <= 0 {
		max = defaultBundleSpans
	}
	spans := r.Spans.Spans()
	if len(spans) > max {
		spans = spans[len(spans)-max:]
	}
	b.SpansTotal = r.Spans.Total()
	b.SpansDropped = b.SpansTotal - uint64(len(spans))
	b.Spans = make([]BundleSpan, len(spans))
	for i, s := range spans {
		b.Spans[i] = BundleSpan{
			Track: s.Track, Kind: s.Kind.String(),
			Start: s.Start, End: s.End,
			Stage: s.Stage, Batch: s.Batch, GPU: s.GPU,
		}
	}
}

// Last returns the most recent bundle (nil when nothing has triggered).
func (r *Recorder) Last() *Bundle {
	if r == nil {
		return nil
	}
	return r.last
}

// TriggerCount reports triggers fired over the recorder's lifetime.
func (r *Recorder) TriggerCount() int {
	if r == nil {
		return 0
	}
	return r.triggers.Total()
}

// Triggers returns the recent-trigger log, oldest first (a copy).
func (r *Recorder) Triggers() []TriggerEvent {
	if r == nil {
		return nil
	}
	return r.triggers.AppendTo(nil)
}
