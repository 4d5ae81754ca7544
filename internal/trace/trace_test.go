package trace

import (
	"math"
	"sort"
	"testing"
)

func TestUniformRate(t *testing.T) {
	for _, tc := range []struct{ rate, horizon float64 }{{100, 10}, {100, 1}, {50, 2}, {1000, 1}} {
		a := Uniform(tc.rate, tc.horizon)
		if want := int(tc.rate * tc.horizon); len(a) != want {
			t.Errorf("Uniform(%v, %v): %d arrivals, want %d", tc.rate, tc.horizon, len(a), want)
			continue
		}
		if last := a[len(a)-1]; last != tc.horizon {
			t.Errorf("Uniform(%v, %v): last arrival %v, want the horizon", tc.rate, tc.horizon, last)
		}
		if !sort.Float64sAreSorted(a) {
			t.Errorf("Uniform(%v, %v): arrivals unsorted", tc.rate, tc.horizon)
		}
	}
}

func TestPoissonRateAndOrder(t *testing.T) {
	a := Poisson(500, 20, 1)
	if got := a.Rate(20); math.Abs(got-500)/500 > 0.05 {
		t.Errorf("poisson rate = %v, want ~500", got)
	}
	if !sort.Float64sAreSorted(a) {
		t.Error("poisson arrivals unsorted")
	}
	// Poisson burstiness (CV² of gaps) ≈ 1.
	if b := a.Burstiness(); b < 0.8 || b > 1.25 {
		t.Errorf("poisson burstiness = %v, want ~1", b)
	}
}

func TestPoissonDeterministicPerSeed(t *testing.T) {
	a := Poisson(100, 5, 7)
	b := Poisson(100, 5, 7)
	if len(a) != len(b) {
		t.Fatal("poisson not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("poisson not deterministic")
		}
	}
}

func TestBurstyIsBurstier(t *testing.T) {
	horizon := 300.0
	bursty := Bursty(DefaultBursty(1000), horizon, 2)
	poisson := Poisson(1000, horizon, 2)
	if bb, pb := bursty.Burstiness(), poisson.Burstiness(); bb < 3*pb {
		t.Errorf("bursty CV² %v not well above poisson %v", bb, pb)
	}
	if !sort.Float64sAreSorted(bursty) {
		t.Error("bursty arrivals unsorted")
	}
}

func TestBurstyAverageRateScaled(t *testing.T) {
	horizon := 600.0
	a := Bursty(DefaultBursty(1000), horizon, 3)
	got := a.Rate(horizon)
	// Thinning targets the average; allow generation variance below.
	if got > 1050 || got < 400 {
		t.Errorf("bursty avg rate = %v, want ≤ ~1000 and non-trivial", got)
	}
}

func TestBurstyHasQuietPeriods(t *testing.T) {
	a := Bursty(DefaultBursty(1000), 300, 4)
	// Longest gap must be substantial (seconds) — the near-idle periods
	// that keep GPU utilization under 50% in Figure 19.
	longest := 0.0
	for i := 1; i < len(a); i++ {
		if g := a[i] - a[i-1]; g > longest {
			longest = g
		}
	}
	if longest < 0.5 {
		t.Errorf("longest quiet gap = %vs, want ≥ 0.5s", longest)
	}
}

func TestRateEmptyAndZeroHorizon(t *testing.T) {
	var a Arrivals
	if a.Rate(10) != 0 {
		t.Error("empty rate not 0")
	}
	if (Arrivals{1, 2}).Rate(0) != 0 {
		t.Error("zero-horizon rate not 0")
	}
	if a.Burstiness() != 0 {
		t.Error("empty burstiness not 0")
	}
}
