package audit

import (
	"strings"
	"testing"
)

// dispatched records one sample's hand-off to stage's instance, and
// merged its entry into stage's merge queue, through the ledger's batch
// forms, as the collector's fan-out records a batch.
func dispatched(l *Ledger, id int64, at float64, stage, instance int) {
	l.DispatchedIDs([]uint64{uint64(id)}, 1, at, stage, instance)
}

func merged(l *Ledger, id int64, at float64, stage int) {
	l.MergedIDs([]uint64{uint64(id)}, at, stage)
}

func TestNilLedgerIsSafe(t *testing.T) {
	var l *Ledger
	l.Arrived(1, 0)
	l.Queued(1, 0)
	dispatched(l, 1, 0, 0, 0)
	merged(l, 1, 0, 1)
	l.Completed(1, 1, 4)
	l.Dropped(2, 1, ReasonAdmission)
	if l.Samples() != 0 {
		t.Error("nil ledger tracked samples")
	}
	r := l.Verify()
	if !r.OK() {
		t.Errorf("nil ledger verify not OK: %v", r.Violations)
	}
}

func TestVerifyCleanLifecycles(t *testing.T) {
	l := NewLedger()
	// Completed via two stages.
	l.Arrived(1, 0.0)
	l.Queued(1, 0.0)
	dispatched(l, 1, 0.001, 0, 3)
	merged(l, 1, 0.004, 1)
	dispatched(l, 1, 0.005, 1, 5)
	l.Completed(1, 0.009, 12)
	// Admission drop, never queued.
	l.Arrived(2, 0.002)
	l.Dropped(2, 0.002, ReasonAdmission)
	// Stale shed after dispatch.
	l.Arrived(3, 0.003)
	l.Queued(3, 0.003)
	dispatched(l, 3, 0.004, 0, 2)
	l.Dropped(3, 0.030, ReasonStaleShed)

	r := l.Verify()
	if !r.OK() {
		t.Fatalf("clean ledger has violations: %v", r.Violations)
	}
	if r.Samples != 3 || r.Completed != 1 || r.Dropped != 2 {
		t.Errorf("samples=%d completed=%d dropped=%d, want 3,1,2", r.Samples, r.Completed, r.Dropped)
	}
	if r.ByReason[ReasonAdmission] != 1 || r.ByReason[ReasonStaleShed] != 1 {
		t.Errorf("reason breakdown = %v", r.ByReason)
	}
	if f := r.Stages[0]; f == nil || f.In != 2 || f.Forwarded != 1 || f.Dropped != 1 {
		t.Errorf("stage 0 flow = %+v", f)
	}
	if f := r.Stages[1]; f == nil || f.In != 1 || f.Completed != 1 {
		t.Errorf("stage 1 flow = %+v", f)
	}
	r.CrossCheck(1, 2)
	if !r.OK() {
		t.Errorf("matching cross-check raised violations: %v", r.Violations)
	}
}

func TestVerifyCatchesLostSample(t *testing.T) {
	l := NewLedger()
	l.Arrived(7, 0)
	dispatched(l, 7, 0.001, 0, 0)
	r := l.Verify()
	if r.OK() {
		t.Fatal("lost sample not flagged")
	}
	if !strings.Contains(r.Violations[0], "no terminal") {
		t.Errorf("violation = %q, want lost-sample message", r.Violations[0])
	}
	if r.Err() == nil {
		t.Error("Err() nil despite violations")
	}
}

func TestVerifyCatchesDoubleTermination(t *testing.T) {
	l := NewLedger()
	l.Arrived(1, 0)
	l.Completed(1, 0.5, 4)
	l.Completed(1, 0.6, 4)
	if l.Verify().OK() {
		t.Error("double completion not flagged")
	}

	l2 := NewLedger()
	l2.Arrived(1, 0)
	l2.Dropped(1, 0.5, ReasonAdmission)
	l2.Completed(1, 0.6, 4)
	if l2.Verify().OK() {
		t.Error("drop-then-complete not flagged")
	}
}

func TestVerifyCatchesNonMonotoneTimestamps(t *testing.T) {
	l := NewLedger()
	l.Arrived(1, 0.5)
	l.Queued(1, 0.4) // travels back in time
	l.Completed(1, 0.6, 4)
	r := l.Verify()
	if r.OK() {
		t.Fatal("non-monotone timestamps not flagged")
	}
	if !strings.Contains(r.Violations[0], "before prior event") {
		t.Errorf("violation = %q", r.Violations[0])
	}
}

func TestVerifyCatchesUnclassifiedDrop(t *testing.T) {
	l := NewLedger()
	l.Arrived(1, 0)
	l.Dropped(1, 0.1, "")
	r := l.Verify()
	if r.OK() {
		t.Fatal("unclassified drop not flagged")
	}
	if !strings.Contains(r.Violations[0], "unclassified") {
		t.Errorf("violation = %q", r.Violations[0])
	}
}

func TestVerifyCatchesStageRegression(t *testing.T) {
	l := NewLedger()
	l.Arrived(1, 0)
	dispatched(l, 1, 0.001, 1, 0)
	dispatched(l, 1, 0.002, 0, 0) // backwards through the pipeline
	l.Completed(1, 0.003, 4)
	r := l.Verify()
	if r.OK() {
		t.Fatal("stage regression not flagged")
	}
}

func TestVerifyCatchesEventsAfterTerminal(t *testing.T) {
	l := NewLedger()
	l.Arrived(1, 0)
	l.Completed(1, 0.1, 4)
	dispatched(l, 1, 0.2, 0, 0)
	if l.Verify().OK() {
		t.Error("post-terminal event not flagged")
	}
}

func TestCrossCheckMismatch(t *testing.T) {
	l := NewLedger()
	l.Arrived(1, 0)
	l.Completed(1, 0.1, 4)
	r := l.Verify()
	r.CrossCheck(2, 0) // collector thinks it served two
	if r.OK() {
		t.Fatal("total mismatch not flagged")
	}
	if !strings.Contains(r.Violations[0], "collector") {
		t.Errorf("violation = %q", r.Violations[0])
	}
}

func TestViolationCapIsHonored(t *testing.T) {
	l := NewLedger()
	for id := int64(1); id <= 200; id++ {
		l.Arrived(id, 0) // none ever terminate
	}
	r := l.Verify()
	if len(r.Violations) > maxViolations {
		t.Errorf("violations list %d exceeds cap %d", len(r.Violations), maxViolations)
	}
	if r.OK() {
		t.Error("capped report claims OK")
	}
	if !strings.Contains(r.String(), "and") {
		t.Errorf("String() does not mention truncation: %s", r.String())
	}
}

func TestDropBreakdown(t *testing.T) {
	l := NewLedger()
	l.Dropped(1, 0, ReasonAdmission)
	l.Dropped(2, 0, ReasonAdmission)
	l.Dropped(3, 0, ReasonSLAFlush)
	got := l.DropBreakdown()
	if got[ReasonAdmission] != 2 || got[ReasonSLAFlush] != 1 {
		t.Errorf("breakdown = %v", got)
	}
}

func TestReportString(t *testing.T) {
	l := NewLedger()
	l.Arrived(1, 0)
	l.Completed(1, 0.1, 4)
	l.Arrived(2, 0)
	l.Dropped(2, 0.1, ReasonAdmission)
	s := l.Verify().String()
	for _, want := range []string{"2 samples", "1 completed", "1 dropped", "admission=1", "conservation OK"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestOrdinal(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		want string
	}{
		{0, "0th"}, {1, "1st"}, {2, "2nd"}, {3, "3rd"}, {4, "4th"}, {7, "7th"},
		{10, "10th"}, {11, "11th"}, {12, "12th"}, {13, "13th"}, {14, "14th"},
		{21, "21st"}, {22, "22nd"}, {23, "23rd"}, {100, "100th"}, {101, "101st"},
		{111, "111th"}, {112, "112th"}, {113, "113th"}, {1000, "1000th"}, {1002, "1002nd"},
	} {
		if got := ordinal(tc.n); got != tc.want {
			t.Errorf("ordinal(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
	l := NewSampledLedger(3)
	l.Arrived(3, 0)
	l.Completed(3, 1, 1)
	if s := l.Verify().String(); !strings.Contains(s, "[sampled: every 3rd of 1 audited") {
		t.Errorf("stride-3 report %q does not say every 3rd", s)
	}
}
