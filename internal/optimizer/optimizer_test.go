package optimizer

import (
	"math"
	"testing"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/profile"
	"e3/internal/workload"
)

func bertConfig(batch int, easyFrac float64, c *cluster.Cluster) Config {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	prof := profile.FromDist(m, workload.Mix(easyFrac), 8000, 1)
	return NewConfig(m, prof, batch, c, 0.100)
}

func TestMaximizeGoodputBasic(t *testing.T) {
	cfg := bertConfig(8, 0.8, cluster.Homogeneous(gpu.V100, 16))
	p, err := MaximizeGoodput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Goodput <= 0 {
		t.Fatal("non-positive goodput")
	}
	if len(p.Splits) < 2 {
		t.Errorf("expected a multi-split plan for an easy workload, got %d split(s): %v", len(p.Splits), p)
	}
	if p.GPUs > 16 {
		t.Errorf("plan uses %d GPUs, cluster has 16", p.GPUs)
	}
	if p.Latency > cfg.SLO*(1-cfg.SlackFrac)+1e-12 {
		t.Errorf("plan latency %v exceeds slacked SLO", p.Latency)
	}
}

func TestPlanCoversModelContiguously(t *testing.T) {
	cfg := bertConfig(8, 0.5, cluster.Homogeneous(gpu.V100, 16))
	p, err := MaximizeGoodput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 1
	for _, s := range p.Splits {
		if s.From != want {
			t.Fatalf("split starts at %d, want %d: %v", s.From, want, p)
		}
		if s.To < s.From {
			t.Fatalf("inverted split: %v", s)
		}
		if s.Replicas < 1 {
			t.Fatalf("split with %d replicas", s.Replicas)
		}
		want = s.To + 1
	}
	if want != 13 {
		t.Fatalf("plan does not end at layer 12: %v", p)
	}
}

func TestEasyWorkloadUsesEarlierCut(t *testing.T) {
	// An easier workload shifts exit mass earlier, so more replication of
	// a shorter first split should appear; at minimum, predicted goodput
	// must be higher than on the hard workload.
	easy, err := MaximizeGoodput(bertConfig(8, 0.8, cluster.Homogeneous(gpu.V100, 16)))
	if err != nil {
		t.Fatal(err)
	}
	hard, err := MaximizeGoodput(bertConfig(8, 0.2, cluster.Homogeneous(gpu.V100, 16)))
	if err != nil {
		t.Fatal(err)
	}
	if easy.Goodput <= hard.Goodput {
		t.Errorf("easy goodput %v not above hard %v", easy.Goodput, hard.Goodput)
	}
}

func TestGoodputGrowsWithBatch(t *testing.T) {
	prev := 0.0
	for _, b := range []int{1, 2, 4, 8} {
		p, err := MaximizeGoodput(bertConfig(b, 0.8, cluster.Homogeneous(gpu.V100, 16)))
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if p.Goodput <= prev {
			t.Errorf("goodput not increasing at batch %d: %v <= %v", b, p.Goodput, prev)
		}
		prev = p.Goodput
	}
}

func TestSLOInfeasible(t *testing.T) {
	cfg := bertConfig(8, 0.8, cluster.Homogeneous(gpu.V100, 16))
	cfg.SLO = 0.001 // 1ms: nothing fits
	if _, err := MaximizeGoodput(cfg); err == nil {
		t.Error("expected infeasibility at 1ms SLO")
	}
}

func TestValidation(t *testing.T) {
	cfg := bertConfig(8, 0.8, cluster.Homogeneous(gpu.V100, 16))
	bad := cfg
	bad.Batch = 0
	if _, err := MaximizeGoodput(bad); err == nil {
		t.Error("batch 0 accepted")
	}
	bad = cfg
	bad.Model = nil
	if _, err := MaximizeGoodput(bad); err == nil {
		t.Error("nil model accepted")
	}
	bad = cfg
	bad.Profile = profile.NewBatch([]float64{1, 1})
	if _, err := MaximizeGoodput(bad); err == nil {
		t.Error("mismatched profile accepted")
	}
	bad = cfg
	bad.SLO = 0
	if _, err := MaximizeGoodput(bad); err == nil {
		t.Error("zero SLO accepted")
	}
}

func TestPipeliningAblation(t *testing.T) {
	on := bertConfig(8, 0.8, cluster.Homogeneous(gpu.V100, 16))
	off := on
	off.Pipelining = false
	pOn, err := MaximizeGoodput(on)
	if err != nil {
		t.Fatal(err)
	}
	pOff, err := MaximizeGoodput(off)
	if err != nil {
		t.Fatal(err)
	}
	if pOn.Goodput <= pOff.Goodput {
		t.Errorf("pipelining on (%v) not better than off (%v)", pOn.Goodput, pOff.Goodput)
	}
}

func TestModelParallelAblation(t *testing.T) {
	on := bertConfig(8, 0.8, cluster.Homogeneous(gpu.V100, 16))
	off := on
	off.ModelParallel = false
	pOn, err := MaximizeGoodput(on)
	if err != nil {
		t.Fatal(err)
	}
	pOff, err := MaximizeGoodput(off)
	if err != nil {
		t.Fatal(err)
	}
	if pOn.Goodput <= pOff.Goodput {
		t.Errorf("MP on (%v) not better than off (%v)", pOn.Goodput, pOff.Goodput)
	}
	if pOff.ModelParallel {
		t.Error("serial plan mislabelled as model-parallel")
	}
}

func TestExitWrapperImprovesGoodput(t *testing.T) {
	// §5.8.6: disabling interior ramps saves ramp-head kernels.
	base := bertConfig(8, 0.8, cluster.Homogeneous(gpu.V100, 16))
	wrapped := base
	wrapped.DisableInteriorRamps = true
	pBase, err := MaximizeGoodput(base)
	if err != nil {
		t.Fatal(err)
	}
	pWrapped, err := MaximizeGoodput(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if !pWrapped.DisabledInteriorRamps || pBase.DisabledInteriorRamps {
		t.Error("exit-wrapper plan flag does not follow Config.DisableInteriorRamps")
	}
	gain := pWrapped.Goodput/pBase.Goodput - 1
	if gain <= 0 {
		t.Errorf("exit-wrapper gain = %.1f%%, want positive", gain*100)
	}
	if gain > 0.35 {
		t.Errorf("exit-wrapper gain = %.1f%%, implausibly large", gain*100)
	}
}

func TestExecModelDisablesOnlyInteriorRamps(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	p := Plan{
		Splits:                []Split{{From: 1, To: 6}, {From: 7, To: 12}},
		DisabledInteriorRamps: true,
	}
	em := p.ExecModel(m)
	if !em.HasRampAfter(6) {
		t.Error("boundary ramp 6 disabled")
	}
	for _, r := range []int{1, 2, 3, 4, 5, 7, 8, 9, 10, 11} {
		if em.HasRampAfter(r) {
			t.Errorf("interior ramp %d still active", r)
		}
	}
	// Original untouched.
	if !m.HasRampAfter(3) {
		t.Error("ExecModel mutated the original model")
	}
	// Without the flag, the original is returned as-is.
	if (Plan{}).ExecModel(m) != m {
		t.Error("ExecModel without flag should return the original")
	}
}

func TestMinimizeGPUs(t *testing.T) {
	cfg := bertConfig(8, 0.8, cluster.Homogeneous(gpu.V100, 40))
	full, err := MaximizeGoodput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := bertConfig(1, 0.8, cluster.Homogeneous(gpu.V100, 40))
	full1, err := MaximizeGoodput(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	target := math.Min(full.Goodput, full1.Goodput) * 0.4
	p, err := MinimizeGPUs(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	if p.Goodput < target {
		t.Errorf("min-GPU plan goodput %v below target %v", p.Goodput, target)
	}
	if p.GPUs >= full.GPUs {
		t.Errorf("min-GPU plan uses %d GPUs, full plan %d", p.GPUs, full.GPUs)
	}
	// Monotonicity: larger batch should not need more GPUs for the same
	// target (better amortization).
	p1, err := MinimizeGPUs(cfg1, target)
	if err != nil {
		t.Fatal(err)
	}
	if p.GPUs > p1.GPUs {
		t.Errorf("batch 8 needs %d GPUs, batch 1 needs %d — batching should help", p.GPUs, p1.GPUs)
	}
}

func TestMinimizeGPUsInfeasibleTarget(t *testing.T) {
	cfg := bertConfig(8, 0.8, cluster.Homogeneous(gpu.V100, 2))
	if _, err := MinimizeGPUs(cfg, 1e9); err == nil {
		t.Error("absurd target accepted")
	}
}

func TestMinimizeCostPrefersCheapGPUs(t *testing.T) {
	// On a heterogeneous cluster with a modest target, the cost-minimal
	// plan should be cheaper than a V100-only plan for the same target.
	het := cluster.PaperHeterogeneous() // 6 V100 + 8 P100 + 15 K80
	cfg := bertConfig(8, 0.8, het)
	target := 1500.0
	p, err := MinimizeCost(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	if p.Goodput < target {
		t.Fatalf("cost plan goodput %v below target", p.Goodput)
	}
	// Compare against restricting to V100s only.
	v100Only := cluster.Homogeneous(gpu.V100, 6)
	cfgV := bertConfig(8, 0.8, v100Only)
	pv, err := MinimizeCost(cfgV, target)
	if err == nil && p.CostPerSec > pv.CostPerSec*1.25 {
		t.Errorf("hetero cost %.6f substantially above V100-only %.6f", p.CostPerSec, pv.CostPerSec)
	}
}

func TestHeterogeneousBeatsOrMatchesHomogeneousAtEqualCost(t *testing.T) {
	// Figure 13's premise: with EE splits, the cost-matched heterogeneous
	// mix should achieve at least comparable goodput.
	hom, err := MaximizeGoodput(bertConfig(8, 0.8, cluster.Homogeneous(gpu.V100, 16)))
	if err != nil {
		t.Fatal(err)
	}
	het, err := MaximizeGoodput(bertConfig(8, 0.8, cluster.PaperHeterogeneous()))
	if err != nil {
		t.Fatal(err)
	}
	if het.Goodput < hom.Goodput*0.8 {
		t.Errorf("heterogeneous goodput %v badly below homogeneous %v at equal cost", het.Goodput, hom.Goodput)
	}
}

func TestPlanStringAndCost(t *testing.T) {
	p, err := MaximizeGoodput(bertConfig(4, 0.8, cluster.Homogeneous(gpu.V100, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if p.String() == "" {
		t.Error("empty String")
	}
	wantCost := float64(p.GPUs) * gpu.Get(gpu.V100).CostPerSecond()
	if math.Abs(p.CostPerSec-wantCost) > 1e-12 {
		t.Errorf("cost %v, want %v", p.CostPerSec, wantCost)
	}
}

func TestVanillaModelGetsSingleSplit(t *testing.T) {
	// A model with no ramps has no boundary candidates: the plan must be
	// one data-parallel split.
	m := ee.NewVanilla(model.BERTBase())
	prof := profile.FromDist(m, workload.Mix(0.8), 2000, 2)
	p, err := MaximizeGoodput(NewConfig(m, prof, 8, cluster.Homogeneous(gpu.V100, 16), 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Splits) != 1 {
		t.Errorf("vanilla plan has %d splits, want 1", len(p.Splits))
	}
	if p.GPUs != 16 {
		t.Errorf("vanilla plan uses %d GPUs, want all 16", p.GPUs)
	}
}
