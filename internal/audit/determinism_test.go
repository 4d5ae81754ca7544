package audit

import (
	"fmt"
	"testing"
)

// buildImbalancedLedger dispatches one sample into each of eight stages
// and never terminates them: every stage ends up with in ≠ out, so
// Verify emits one balance violation per stage on top of the per-sample
// no-terminal ones.
func buildImbalancedLedger() *Ledger {
	l := NewLedger()
	for s := 0; s < 8; s++ {
		id := int64(s + 1)
		l.Arrived(id, float64(s))
		l.Queued(id, float64(s)+0.1)
		dispatched(l, id, float64(s)+0.2, s, 0)
	}
	return l
}

// TestVerifyViolationOrderIsDeterministic pins the fix for the
// stage-balance walk: Report.Stages is a map, and iterating it directly
// emitted the balance violations in randomized order, so two verifications
// of identical ledgers produced differently-ordered (and differently
// rendered) reports. The walk now sorts stage indices first; reverting it
// makes some pair of the repeated reports below disagree with near
// certainty (8 stages over 24 iterations).
func TestVerifyViolationOrderIsDeterministic(t *testing.T) {
	reference := buildImbalancedLedger().Verify()
	if len(reference.Violations) < 16 {
		t.Fatalf("fixture produced %d violations; want ≥16 (8 no-terminal + 8 stage-balance)", len(reference.Violations))
	}
	refText := reference.String()
	for i := 0; i < 24; i++ {
		r := buildImbalancedLedger().Verify()
		for j, v := range r.Violations {
			if v != reference.Violations[j] {
				t.Fatalf("iteration %d: violation %d = %q, reference has %q — report order is nondeterministic",
					i, j, v, reference.Violations[j])
			}
		}
		if got := r.String(); got != refText {
			t.Fatalf("iteration %d: rendered report differs from reference:\n%s\n--- vs ---\n%s", i, got, refText)
		}
	}
}

// TestVerifyStageBalanceSorted checks the balance violations themselves
// arrive in ascending stage order, which is what makes the textual report
// stable under diffing.
func TestVerifyStageBalanceSorted(t *testing.T) {
	r := buildImbalancedLedger().Verify()
	var stages []int
	for _, v := range r.Violations {
		var si, in, out, c, d, f int
		if n, _ := fmt.Sscanf(v, "stage %d: in %d ≠ out %d (completed %d + dropped %d + forwarded %d)", &si, &in, &out, &c, &d, &f); n >= 1 {
			stages = append(stages, si)
		}
	}
	if len(stages) != 8 {
		t.Fatalf("found %d stage-balance violations, want 8: %v", len(stages), r.Violations)
	}
	for i := 1; i < len(stages); i++ {
		if stages[i] <= stages[i-1] {
			t.Fatalf("stage-balance violations out of ascending order: %v", stages)
		}
	}
}
