package telemetry

import (
	"testing"

	"e3/internal/audit"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(Span{Track: "g0"})
	tr.Execute("g0", "V100", 0, 8, 0, 1)
	tr.QueueWait(8, 0, 0.5)
	tr.Transfer(0, 4, 1, 1.1)
	tr.Fuse(1, 8, 1, 1.2)
	tr.Arrive()
	tr.Complete(1)
	tr.Drop("admission")
	if tr.Spans() != nil || tr.Total() != 0 || tr.Evicted() != 0 {
		t.Fatal("nil tracer retained state")
	}
	a, c, d := tr.Counts()
	if a != 0 || c != 0 || d != 0 {
		t.Fatal("nil tracer counted lifecycle events")
	}
	if tr.LatencyHist() != nil || tr.BatchHist(0) != nil || tr.Stages() != nil {
		t.Fatal("nil tracer returned histograms")
	}
	tr.Reconcile(&audit.Report{}) // must not panic or violate
}

func TestRecordClampsBackwardSpan(t *testing.T) {
	tr := New()
	tr.Record(Span{Track: "g0", Start: 2.0, End: 1.9})
	s := tr.Spans()[0]
	if s.End != s.Start {
		t.Fatalf("backward span not clamped: start=%v end=%v", s.Start, s.End)
	}
	if s.Duration() != 0 {
		t.Fatalf("clamped span has duration %v", s.Duration())
	}
}

func TestRingEvictsOldestKeepsOrder(t *testing.T) {
	tr := NewRing(3)
	for i := 0; i < 7; i++ {
		tr.Record(Span{Track: "g0", Start: float64(i), End: float64(i) + 0.5})
	}
	if tr.Total() != 7 {
		t.Fatalf("Total = %d, want 7", tr.Total())
	}
	if tr.Evicted() != 4 {
		t.Fatalf("Evicted = %d, want 4", tr.Evicted())
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
	for i, s := range spans {
		if want := float64(4 + i); s.Start != want {
			t.Fatalf("span %d start = %v, want %v (oldest-first order)", i, s.Start, want)
		}
	}
}

func TestRingBelowCapacityIsStable(t *testing.T) {
	tr := NewRing(8)
	tr.Record(Span{Track: "a", Start: 1, End: 2})
	tr.Record(Span{Track: "b", Start: 2, End: 3})
	if tr.Evicted() != 0 {
		t.Fatalf("Evicted = %d before wrap", tr.Evicted())
	}
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Track != "a" || spans[1].Track != "b" {
		t.Fatalf("unexpected spans %+v", spans)
	}
}

func TestExecuteFeedsBatchHistogram(t *testing.T) {
	tr := New()
	tr.Execute("g0", "V100", 0, 8, 0, 1)
	tr.Execute("g1", "V100", 0, 8, 0, 1)
	tr.Execute("g2", "T4", 1, 4, 1, 2)
	stages := tr.Stages()
	if len(stages) != 2 || stages[0] != 0 || stages[1] != 1 {
		t.Fatalf("Stages = %v, want [0 1]", stages)
	}
	if n := tr.BatchHist(0).Count(); n != 2 {
		t.Fatalf("stage 0 batch observations = %d, want 2", n)
	}
	if got := tr.BatchHist(1).Sum(); got != 4 {
		t.Fatalf("stage 1 batch sum = %v, want 4", got)
	}
	if tr.BatchHist(7) != nil {
		t.Fatal("histogram for never-executed stage")
	}
}

func TestLifecycleCountersAndLatency(t *testing.T) {
	tr := New()
	tr.Arrive()
	tr.Arrive()
	tr.Arrive()
	tr.Complete(0.05)
	tr.Complete(0.07)
	tr.Drop("admission")
	a, c, d := tr.Counts()
	if a != 3 || c != 2 || d != 1 {
		t.Fatalf("Counts = (%d, %d, %d), want (3, 2, 1)", a, c, d)
	}
	if got := tr.DropsByReason()["admission"]; got != 1 {
		t.Fatalf("admission drops = %d, want 1", got)
	}
	if n := tr.LatencyHist().Count(); n != 2 {
		t.Fatalf("latency observations = %d, want 2", n)
	}
}

// reconcileReport builds a verified-shape report matching n arrivals, c
// completions, and drops by reason.
func reconcileReport(samples, completed int, byReason map[audit.Reason]int) *audit.Report {
	dropped := 0
	for _, n := range byReason {
		dropped += n
	}
	return &audit.Report{Samples: samples, Completed: completed, Dropped: dropped, ByReason: byReason}
}

func TestReconcileAgreement(t *testing.T) {
	tr := New()
	tr.Arrive()
	tr.Arrive()
	tr.Complete(0.5)
	tr.Drop(string(audit.ReasonAdmission))
	rep := reconcileReport(2, 1, map[audit.Reason]int{audit.ReasonAdmission: 1})
	tr.Reconcile(rep)
	if len(rep.Violations) != 0 {
		t.Fatalf("agreeing tracer produced violations: %v", rep.Violations)
	}
}

func TestReconcileFlagsEveryMismatch(t *testing.T) {
	tr := New()
	tr.Arrive() // 1 arrival; report claims 2
	tr.Complete(0.5)
	tr.Complete(0.5) // 2 completions; report claims 1
	tr.Drop("admission")
	tr.Drop("stale-shed") // reason the report lacks
	rep := reconcileReport(2, 1, map[audit.Reason]int{audit.ReasonAdmission: 1})
	tr.Reconcile(rep)
	// arrived, completed, dropped totals, and the stale-shed reason all
	// disagree: 4 violations.
	if len(rep.Violations) != 4 {
		t.Fatalf("violations = %d (%v), want 4", len(rep.Violations), rep.Violations)
	}
}

func TestReconcileNilReportIsSafe(t *testing.T) {
	tr := New()
	tr.Arrive()
	tr.Reconcile(nil)
}
