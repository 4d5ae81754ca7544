package telemetry

import (
	"reflect"
	"testing"

	"e3/internal/audit"
)

// tracerWithDrops records one drop for each of eight reasons the ledger
// knows nothing about, so Reconcile appends eight violations.
func tracerWithDrops() *Tracer {
	tr := New()
	for _, reason := range []string{"zeta", "admission", "mu", "alpha", "stale", "omega", "beta", "kappa"} {
		tr.Drop(reason)
	}
	return tr
}

// TestReconcileViolationOrderIsDeterministic pins the fix for the
// drops-by-reason walk: dropsBy is a map, and ranging it directly
// appended the per-reason violations in randomized order. Reconcile now
// walks sorted reasons; reverting that makes some pair of the repeated
// reports below disagree with near certainty (8 reasons over 24
// iterations).
func TestReconcileViolationOrderIsDeterministic(t *testing.T) {
	run := func() []string {
		rep := &audit.Report{ByReason: make(map[audit.Reason]int)}
		tracerWithDrops().Reconcile(rep)
		return rep.Violations
	}
	reference := run()
	// One dropped-total mismatch (8 drops vs an empty report) plus 8
	// per-reason mismatches.
	if len(reference) != 9 {
		t.Fatalf("fixture produced %d violations, want 9: %v", len(reference), reference)
	}
	for i := 0; i < 24; i++ {
		if got := run(); !reflect.DeepEqual(got, reference) {
			t.Fatalf("iteration %d: violation order is nondeterministic:\n got %v\nwant %v", i, got, reference)
		}
	}
}

// TestStagesAscending pins Stages' contract: the indices come out sorted
// no matter the order stages first appeared.
func TestStagesAscending(t *testing.T) {
	tr := New()
	for _, s := range []int{5, 1, 7, 0, 3, 6, 2, 4} {
		tr.Execute("g0", "V100", s, 8, float64(s), float64(s)+1)
	}
	got := tr.Stages()
	want := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Stages() = %v, want %v", got, want)
	}
}
