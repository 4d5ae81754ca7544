package main

import "testing"

// TestGateBars checks each timing gate's verdict at the edges of its bar,
// with no timing: the bars are read from the gates' own constants.
func TestGateBars(t *testing.T) {
	bars := fleetScalingBars
	for _, tc := range []struct {
		cores int
		want  float64
	}{
		{1, 0}, {2, bars[2].x}, {3, bars[2].x}, {4, bars[1].x}, {7, bars[1].x}, {8, bars[0].x}, {16, bars[0].x},
	} {
		if got := fleetScalingBar(tc.cores); got != tc.want {
			t.Errorf("fleet bar on %d cores = %g, want %g", tc.cores, got, tc.want)
		}
	}

	for _, tc := range []struct {
		refMS, memoMS, widenedMS float64
		pass                     bool
	}{
		{planSpeedupBar - 0.01, 1, 1, false},
		{planSpeedupBar, 1, 1, true},
		{planSpeedupBar, 1, planSpeedupBar, true},
		{planSpeedupBar, 1, planSpeedupBar + 1e-6, false}, // widened slower than the reference
	} {
		if got := planPass(tc.refMS, tc.memoMS, tc.widenedMS); got != tc.pass {
			t.Errorf("planPass(%g, %g, %g) = %v, want %v", tc.refMS, tc.memoMS, tc.widenedMS, got, tc.pass)
		}
	}

	const untracedMS = 1.61
	bound := untracedMS*overheadFactor + overheadSlackMS
	for _, tc := range []struct {
		observedMS float64
		pass       bool
	}{{bound, true}, {bound + 1e-6, false}} { // 1e-6 ms is 1 ns
		if gotBound, got := overheadPass(untracedMS, tc.observedMS); gotBound != bound || got != tc.pass {
			t.Errorf("overheadPass(%g, %g) = (%g, %v), want (%g, %v)", untracedMS, tc.observedMS, gotBound, got, bound, tc.pass)
		}
	}

	if simPass(simFloorEventsPerS - 1) {
		t.Errorf("%d events/s passes the sim floor", simFloorEventsPerS-1)
	}
	if !simPass(simFloorEventsPerS) {
		t.Errorf("%d events/s fails the sim floor", simFloorEventsPerS)
	}
}
