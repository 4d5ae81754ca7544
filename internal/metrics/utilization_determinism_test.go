package metrics

import "testing"

// utilizationFixture spreads busy fractions 0.1, 0.2, ... across eight
// resources, added in the given order. The fractions are chosen so that
// float summation order changes the low bits ((0.1+0.2)+0.3 ≠
// 0.1+(0.2+0.3)).
func utilizationFixture(order []int) *UtilizationTracker {
	u := NewUtilizationTracker(0)
	for _, i := range order {
		name := string(rune('a' + i))
		u.AddBusyAt(u.Register(name), 0, float64(i+1)/10)
	}
	return u
}

// TestUtilizationIsOrderIndependent pins the fix for the mean-utilization
// sum: it walked the busy map in iteration order, and float addition is
// non-associative, so identical trackers could report utilizations
// differing in the last bits from run to run — enough to break
// byte-identical experiment output. The sum now walks sorted resource
// names; reverting that makes the repeated and permuted sums below
// disagree with near certainty.
func TestUtilizationIsOrderIndependent(t *testing.T) {
	reference := utilizationFixture([]int{0, 1, 2, 3, 4, 5, 6, 7}).Utilization(1)
	if reference <= 0 {
		t.Fatalf("fixture utilization = %v, want positive", reference)
	}
	// Same tracker contents, inserted in reverse and shuffled orders: the
	// map holds identical spans, so the sum must be bitwise identical.
	for _, order := range [][]int{
		{7, 6, 5, 4, 3, 2, 1, 0},
		{3, 0, 6, 2, 7, 1, 5, 4},
	} {
		if got := utilizationFixture(order).Utilization(1); got != reference {
			t.Fatalf("insertion order %v: utilization %v ≠ reference %v", order, got, reference)
		}
	}
	// Repeated calls on one tracker re-walk the map; every call must agree.
	u := utilizationFixture([]int{0, 1, 2, 3, 4, 5, 6, 7})
	for i := 0; i < 24; i++ {
		if got := u.Utilization(1); got != reference {
			t.Fatalf("call %d: utilization %v ≠ reference %v — summation order is nondeterministic", i, got, reference)
		}
	}
}
