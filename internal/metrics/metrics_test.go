package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLatencyQuantiles(t *testing.T) {
	var r LatencyRecorder
	for i := 1; i <= 100; i++ {
		r.Observe(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.25, 25.75}, {0.75, 75.25},
	}
	for _, c := range cases {
		if got := r.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestLatencyEmpty(t *testing.T) {
	var r LatencyRecorder
	if r.Quantile(0.5) != 0 || r.Mean() != 0 || r.Count() != 0 {
		t.Error("empty recorder should report zeros")
	}
}

// TestLatencyNilRecordsNothing: a nil recorder, the one a driver that
// never reads latencies leaves on its collector, records nothing and
// reads as empty.
func TestLatencyNilRecordsNothing(t *testing.T) {
	var r *LatencyRecorder
	r.Observe(0.25)
	if r.Count() != 0 || r.Quantile(0.5) != 0 || r.Quantile(1) != 0 || r.Mean() != 0 || len(r.Samples()) != 0 {
		t.Errorf("nil recorder reads count %d, p50 %v, max %v, mean %v, %d samples; want all empty",
			r.Count(), r.Quantile(0.5), r.Quantile(1), r.Mean(), len(r.Samples()))
	}
	if s := r.Summarize(); s != (Summary{}) {
		t.Errorf("nil recorder summarizes to %+v, want the zero Summary", s)
	}
}

func TestLatencyNegativeClamped(t *testing.T) {
	var r LatencyRecorder
	r.Observe(-1)
	if r.Quantile(0) != 0 {
		t.Errorf("negative latency not clamped: min=%v", r.Quantile(0))
	}
}

func TestSummary(t *testing.T) {
	var r LatencyRecorder
	for _, v := range []float64{0.010, 0.020, 0.030, 0.040} {
		r.Observe(v)
	}
	s := r.Summarize()
	if s.Min != 0.010 || s.Max != 0.040 || s.Count != 4 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Mean-0.025) > 1e-12 {
		t.Errorf("mean = %v, want 0.025", s.Mean)
	}
}

func TestGoodputMeter(t *testing.T) {
	g := NewGoodputMeter(0)
	g.ServeOK(100, 5)
	g.ServeOK(100, 10)
	if got := g.Goodput(); math.Abs(got-20) > 1e-9 {
		t.Errorf("goodput = %v, want 20", got)
	}
	g.Drop(12)
	if g.Served != 200 {
		t.Errorf("served %d, want 200", g.Served)
	}
	if got := g.Goodput(); math.Abs(got-200.0/12) > 1e-9 {
		t.Errorf("goodput after a drop at 12 = %v, want %v", got, 200.0/12)
	}
	g.CloseAt(20)
	if got := g.Goodput(); math.Abs(got-10) > 1e-9 {
		t.Errorf("goodput after CloseAt = %v, want 10", got)
	}
}

func TestGoodputEmpty(t *testing.T) {
	g := NewGoodputMeter(3)
	if g.Goodput() != 0 {
		t.Error("fresh meter should report zeros")
	}
}

func TestUtilizationTracker(t *testing.T) {
	u := NewUtilizationTracker(0)
	u.Register("gpu0")
	u.Register("gpu1")
	u.AddBusyAt(u.Register("gpu0"), 0, 5)
	got := u.Utilization(10)
	if math.Abs(got-0.25) > 1e-9 {
		t.Errorf("utilization = %v, want 0.25", got)
	}
}

// TestUtilizationSlots: Register hands out one slot per resource, stable
// across re-registration, and AddBusyAt credits busy time to the slot's
// resource by name.
func TestUtilizationSlots(t *testing.T) {
	u := NewUtilizationTracker(0)
	g0, g1 := u.Register("gpu0"), u.Register("gpu1")
	if g0 == g1 || u.Register("gpu0") != g0 {
		t.Fatalf("slots gpu0=%d gpu1=%d, re-registered gpu0=%d", g0, g1, u.Register("gpu0"))
	}
	u.AddBusyAt(g1, 1, 2)
	u.AddBusyAt(u.Register("gpu1"), 4, 1)
	for name, want := range map[string]int64{"gpu1": 3e9, "gpu0": 0, "gpu9": 0} {
		if got := u.BusyNanos(name); got != want {
			t.Errorf("BusyNanos(%s) = %d, want %d", name, got, want)
		}
	}
	if got, want := u.Utilization(10), 0.15; math.Abs(got-want) > 1e-12 {
		t.Errorf("utilization = %v, want %v", got, want)
	}
	if got := u.Resources(); len(got) != 2 {
		t.Errorf("resources = %v; querying an unregistered name must not register it", got)
	}
}

func TestUtilizationClamped(t *testing.T) {
	u := NewUtilizationTracker(0)
	u.AddBusyAt(u.Register("gpu0"), 0, 100)
	if got := u.Utilization(10); got != 1 {
		t.Errorf("utilization = %v, want clamped to 1", got)
	}
}

// Regression: busy time credited at dispatch must not count past the
// measurement horizon. The seed summed durations, so a batch dispatched
// just before the end of a run credited its full service time and
// utilization saturated at the per-resource clamp instead of reporting
// the true fraction.
func TestUtilizationClampsBusyToHorizon(t *testing.T) {
	u := NewUtilizationTracker(0)
	u.Register("gpu0")
	// Dispatched at t=9.5 with 10s of service: only 0.5s lies inside the
	// [0, 10] measurement window.
	u.AddBusyAt(u.Register("gpu0"), 9.5, 10)
	if got, want := u.Utilization(10), 0.05; math.Abs(got-want) > 1e-9 {
		t.Errorf("utilization = %v, want %v (busy clamped to horizon)", got, want)
	}
	// Work entirely before the tracking window start counts as zero.
	v := NewUtilizationTracker(5)
	v.AddBusyAt(v.Register("gpu0"), 0, 4)
	if got := v.Utilization(10); got != 0 {
		t.Errorf("utilization = %v, want 0 for pre-window busy time", got)
	}
}

// Property: quantiles are monotone in q and bounded by [min, max].
func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var r LatencyRecorder
		for _, v := range raw {
			r.Observe(float64(v))
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := r.Quantile(q)
			if v < prev || v < r.Quantile(0) || v > r.Quantile(1) {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
