package slo

import (
	"bytes"
	"testing"

	"e3/internal/audit"
	"e3/internal/telemetry"
)

func TestRecorderNil(t *testing.T) {
	var r *Recorder
	if r.Trigger(TriggerEngineAbort, "x", 1.0) != nil || r.Last() != nil ||
		r.TriggerCount() != 0 {
		t.Fatal("nil recorder must be inert")
	}
}

func TestRecorderEmptySources(t *testing.T) {
	r := &Recorder{}
	b := r.Trigger(TriggerAuditViolation, "detail", 3.5)
	if b == nil || r.Last() != b || r.TriggerCount() != 1 {
		t.Fatalf("trigger bookkeeping broken: %+v", r)
	}
	if b.Trigger.Reason != TriggerAuditViolation || b.Trigger.At != 3.5 || b.Trigger.Seq != 1 {
		t.Fatalf("trigger event = %+v", b.Trigger)
	}
	if b.Forecast != nil || b.Ledger != nil || b.Budget != nil || b.Attribution != nil {
		t.Fatalf("empty recorder produced snapshots: %+v", b)
	}
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
}

func TestRecorderSnapshotsSources(t *testing.T) {
	const recorded = maxBundleSpans + 20
	tr := telemetry.NewRing(maxBundleSpans + 8)
	for i := 0; i < recorded; i++ {
		tr.Execute("g0", "V100", 0, 4, float64(i), float64(i)+0.5)
	}
	led := audit.NewLedger()
	led.Arrived(1, 0)
	led.Queued(1, 0)
	led.Completed(1, 1, 4)
	bud := NewBudget(0.99, 2.0)
	bud.ObserveWindow(0, 99, 1, 0, 2.0)
	attr := NewAttribution(4)
	drive(attr, 1)

	r := &Recorder{Spans: tr, Ledger: led, Budget: bud, Attr: attr}
	b := r.Trigger(TriggerSLOBurn, "window 0", 2.0)

	if len(b.Spans) != maxBundleSpans || b.SpansTotal != recorded || b.SpansDropped != 20 {
		t.Fatalf("span tail = %d spans, total=%d dropped=%d; want %d/%d/20",
			len(b.Spans), b.SpansTotal, b.SpansDropped, maxBundleSpans, recorded)
	}
	if b.Spans[len(b.Spans)-1].Start != recorded-1 {
		t.Fatalf("span tail must end with the newest span: %+v", b.Spans)
	}
	if b.Ledger == nil || b.Ledger.Arrived != 1 || b.Ledger.Completed != 1 {
		t.Fatalf("ledger snapshot = %+v", b.Ledger)
	}
	if b.Budget == nil || b.Budget.Windows != 1 {
		t.Fatalf("budget snapshot = %+v", b.Budget)
	}
	if b.Attribution == nil || b.Attribution.Attributed != 1 {
		t.Fatalf("attribution snapshot = %+v", b.Attribution)
	}
}

func TestRecorderTriggerLogCapped(t *testing.T) {
	r := &Recorder{}
	for i := 0; i < maxTriggerLog+8; i++ {
		r.Trigger(TriggerEngineAbort, "", float64(i))
	}
	if r.TriggerCount() != maxTriggerLog+8 {
		t.Fatalf("TriggerCount = %d", r.TriggerCount())
	}
	log := r.Last().Triggers
	if len(log) != maxTriggerLog {
		t.Fatalf("trigger log holds %d, want cap %d", len(log), maxTriggerLog)
	}
	if log[len(log)-1].Seq != maxTriggerLog+8 {
		t.Fatalf("log must end with the newest trigger: %+v", log[len(log)-1])
	}
}

func TestRecorderBundleDeterministic(t *testing.T) {
	build := func() *Recorder {
		attr := NewAttribution(4)
		for i := int64(0); i < 5; i++ {
			drive(attr, i)
		}
		bud := NewBudget(0.99, 2.0)
		bud.ObserveWindow(0, 100, 3, 0, 2.0)
		led := audit.NewLedger()
		led.Arrived(1, 0)
		led.Queued(1, 0)
		led.Completed(1, 1, 4)
		tr := telemetry.NewRing(16)
		tr.Execute("g0", "V100", 0, 4, 0, 0.5)
		return &Recorder{Spans: tr, Ledger: led, Budget: bud, Attr: attr}
	}
	var b1, b2 bytes.Buffer
	if err := build().Trigger(TriggerSLOBurn, "same", 1.0).WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().Trigger(TriggerSLOBurn, "same", 1.0).WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("identical state marshalled differently:\n%s\nvs\n%s", b1.String(), b2.String())
	}
}
