package gpu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCatalogueOrdering(t *testing.T) {
	// Compute capability must rise K80 < P100 < V100 < A6000.
	order := []Kind{K80, P100, V100, A6000}
	for i := 1; i < len(order); i++ {
		if Get(order[i]).PeakTFLOPS <= Get(order[i-1]).PeakTFLOPS {
			t.Errorf("%s peak %v not greater than %s peak %v",
				order[i], Get(order[i]).PeakTFLOPS, order[i-1], Get(order[i-1]).PeakTFLOPS)
		}
	}
}

func TestUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Get of unknown kind did not panic")
		}
	}()
	Get(Kind("H100"))
}

func TestKindsSortedByPrice(t *testing.T) {
	ks := Kinds()
	if len(ks) != 4 {
		t.Fatalf("Kinds() returned %d kinds, want 4", len(ks))
	}
	for i := 1; i < len(ks); i++ {
		if Get(ks[i]).HourlyUSD < Get(ks[i-1]).HourlyUSD {
			t.Errorf("Kinds() not sorted by price: %v", ks)
		}
	}
}

func TestLayerTimeZeroBatchFree(t *testing.T) {
	s := Get(V100)
	if got := s.LayerTime(1e9, 0); got != 0 {
		t.Errorf("LayerTime(_, 0) = %v, want 0 (drained batch skips layer)", got)
	}
}

func TestLayerTimeMonotoneInBatch(t *testing.T) {
	s := Get(V100)
	prev := 0.0
	for b := 1; b <= 128; b *= 2 {
		cur := s.LayerTime(1e9, b)
		if cur <= prev {
			t.Errorf("LayerTime not increasing at batch %d: %v <= %v", b, cur, prev)
		}
		prev = cur
	}
}

func TestLayerTimeSaturationShape(t *testing.T) {
	// Below saturation the marginal cost of doubling the batch must be
	// small; above it, near-linear. This is the core EE-batching mechanism.
	s := Get(V100) // SatBatch 8
	small := s.LayerTime(1e9, 2) / s.LayerTime(1e9, 1)
	large := s.LayerTime(1e9, 128) / s.LayerTime(1e9, 64)
	if small > 1.25 {
		t.Errorf("sub-saturation doubling cost %v, want < 1.25 (latency-bound)", small)
	}
	if large < 1.8 {
		t.Errorf("super-saturation doubling cost %v, want near 2 (throughput-bound)", large)
	}
}

func TestPerSampleTimeDecreasesWithBatch(t *testing.T) {
	// Batching must amortize: per-sample time strictly decreases.
	s := Get(A6000)
	prev := math.Inf(1)
	for b := 1; b <= 64; b *= 2 {
		per := s.LayerTime(5e9, b) / float64(b)
		if per >= prev {
			t.Errorf("per-sample time did not decrease at batch %d", b)
		}
		prev = per
	}
}

func TestUtilizationBounds(t *testing.T) {
	for _, k := range Kinds() {
		s := Get(k)
		if u := s.Utilization(0); u != 0 {
			t.Errorf("%s Utilization(0) = %v", k, u)
		}
		if u := s.Utilization(1 << 20); u < 0.99 || u > 1 {
			t.Errorf("%s Utilization(huge) = %v, want ~1", k, u)
		}
		prev := 0.0
		for b := 1; b <= 64; b++ {
			u := s.Utilization(b)
			if u <= prev || u > 1 {
				t.Fatalf("%s utilization not monotone in (0,1] at batch %d: %v", k, b, u)
			}
			prev = u
		}
	}
}

func TestWeightBandwidthTerm(t *testing.T) {
	s := Get(A6000)
	// Weight reads add a constant per batch: 768 MB at 768 GB/s = 1 ms.
	base := s.LayerTime(1e9, 4)
	withW := s.LayerTimeW(1e9, 768e6, 4)
	if got := withW - base; math.Abs(got-1e-3) > 1e-9 {
		t.Errorf("weight term = %v, want 1ms", got)
	}
	// The term must not scale with batch (read once per pass).
	d8 := s.LayerTimeW(1e9, 768e6, 8) - s.LayerTime(1e9, 8)
	if math.Abs(d8-1e-3) > 1e-9 {
		t.Errorf("weight term at batch 8 = %v, want 1ms", d8)
	}
}

func TestCostPerSecond(t *testing.T) {
	s := Get(V100)
	if got := s.CostPerSecond() * 3600; math.Abs(got-s.HourlyUSD) > 1e-9 {
		t.Errorf("cost round-trip mismatch: %v vs %v", got, s.HourlyUSD)
	}
}

// Property: for any flops/batch, LayerTime ≥ LaunchOverhead and
// utilization-derived time identity holds: t ≈ launch + flops*B/(peak*util).
func TestLayerTimeUtilizationIdentity(t *testing.T) {
	s := Get(V100)
	f := func(rawFlops uint32, rawBatch uint8) bool {
		flops := float64(rawFlops%1000+1) * 1e7
		batch := int(rawBatch%64) + 1
		tm := s.LayerTime(flops, batch)
		if tm < s.LaunchOverhead {
			return false
		}
		util := s.Utilization(batch)
		want := s.LaunchOverhead + flops*float64(batch)/(s.PeakTFLOPS*1e12*util)
		return math.Abs(tm-want) < 1e-12+1e-9*want
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
