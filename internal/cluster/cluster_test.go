package cluster

import (
	"math"
	"testing"

	"e3/internal/gpu"
)

func TestHomogeneousLayout(t *testing.T) {
	c := Homogeneous(gpu.V100, 16)
	if c.Size() != 16 {
		t.Fatalf("size = %d, want 16", c.Size())
	}
	if got := c.Counts()[gpu.V100]; got != 16 {
		t.Errorf("V100 count = %d, want 16", got)
	}
	// Two GPUs per machine → 8 machines.
	machines := make(map[int]int)
	for _, d := range c.Devices {
		machines[d.Machine]++
	}
	if len(machines) != 8 {
		t.Errorf("machines = %d, want 8", len(machines))
	}
	for m, n := range machines {
		if n != 2 {
			t.Errorf("machine %d has %d GPUs, want 2", m, n)
		}
	}
}

func TestPaperEvaluationInventory(t *testing.T) {
	c := PaperEvaluation()
	if c.Size() != 46 {
		t.Errorf("paper cluster size = %d, want 46", c.Size())
	}
	counts := c.Counts()
	want := map[gpu.Kind]int{gpu.A6000: 7, gpu.V100: 16, gpu.P100: 8, gpu.K80: 15}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("count[%s] = %d, want %d", k, counts[k], n)
		}
	}
}

func TestHeterogeneousCostMatchesHomogeneous(t *testing.T) {
	// Figure 13's premise: both clusters cost ~$0.013/s.
	het := PaperHeterogeneous().CostPerSecond()
	hom := Homogeneous(gpu.V100, 16).CostPerSecond()
	if math.Abs(het-hom)/hom > 0.03 {
		t.Errorf("cost mismatch: het=%.5f hom=%.5f (want within 3%%)", het, hom)
	}
	if hom < 0.011 || hom > 0.015 {
		t.Errorf("16xV100 cost = %.5f $/s, want ~0.013", hom)
	}
}

func TestOfKind(t *testing.T) {
	c := PaperHeterogeneous()
	if got := len(c.OfKind(gpu.V100)); got != 6 {
		t.Errorf("OfKind(V100) = %d, want 6", got)
	}
	if got := len(c.OfKind(gpu.A6000)); got != 0 {
		t.Errorf("OfKind(A6000) = %d, want 0", got)
	}
}

func TestLinkSelection(t *testing.T) {
	c := Homogeneous(gpu.V100, 4) // machines: [0,0,1,1]
	if got := c.Link(0, 0).Name; got != "local" {
		t.Errorf("self link = %q, want local", got)
	}
	if got := c.Link(0, 1).Name; got != "pcie" {
		t.Errorf("same-machine link = %q, want pcie", got)
	}
	if got := c.Link(1, 2).Name; got != "eth10g" {
		t.Errorf("cross-machine link = %q, want eth10g", got)
	}
}

func TestMarkStraggler(t *testing.T) {
	c := Homogeneous(gpu.K80, 2)
	c.MarkStraggler(1, 2.5)
	if c.Devices[1].Slowdown != 2.5 {
		t.Errorf("slowdown = %v, want 2.5", c.Devices[1].Slowdown)
	}
	c.MarkStraggler(0, 0.1) // below 1 clamps to healthy
	if c.Devices[0].Slowdown != 1 {
		t.Errorf("slowdown = %v, want clamped to 1", c.Devices[0].Slowdown)
	}
}

func TestDeterministicLayout(t *testing.T) {
	a := PaperHeterogeneous()
	b := PaperHeterogeneous()
	for i := range a.Devices {
		if a.Devices[i] != b.Devices[i] {
			t.Fatalf("layout not deterministic at device %d: %+v vs %+v", i, a.Devices[i], b.Devices[i])
		}
	}
}

func TestDescribe(t *testing.T) {
	for _, tc := range []struct {
		counts map[gpu.Kind]int
		want   string
	}{
		{nil, ""},
		{map[gpu.Kind]int{gpu.V100: 4}, "4xV100"},
		{PaperEvaluation().Counts(), "7xA6000+15xK80+8xP100+16xV100"},
		{map[gpu.Kind]int{gpu.V100: 2, gpu.K80: 0}, "0xK80+2xV100"},
	} {
		if got := Describe(tc.counts); got != tc.want {
			t.Errorf("Describe(%v) = %q, want %q", tc.counts, got, tc.want)
		}
	}
}
