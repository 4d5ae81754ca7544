package replan

import (
	"testing"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/forecast"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/telemetry"
)

func cacheProblem(surv []float64) optimizer.Config {
	return optimizer.NewConfig(ee.NewDeeBERT(model.BERTBase(), 0.4), profile.NewBatch(surv), 8, cluster.Homogeneous(gpu.V100, 8), 0.100)
}

func flatSurv(L int, v float64) []float64 {
	s := make([]float64, L)
	for i := range s {
		s[i] = v
	}
	return s
}

// TestPlanCacheToleranceMatching: forecasts within the per-layer tolerance
// share a cached plan; forecasts beyond it, or any other planner input
// change, do not.
func TestPlanCacheToleranceMatching(t *testing.T) {
	c := NewPlanCache(4, 0.02)
	base := cacheProblem(flatSurv(12, 0.500))
	p := optimizer.Plan{GPUs: 3}
	c.Store(base, p)

	near := cacheProblem(flatSurv(12, 0.515)) // within 0.02 everywhere
	if got, ok := c.Lookup(near); !ok || got.GPUs != 3 {
		t.Error("forecast within tolerance missed the cache")
	}
	far := cacheProblem(flatSurv(12, 0.55)) // 0.05 away
	if _, ok := c.Lookup(far); ok {
		t.Error("forecast beyond tolerance hit the cache")
	}

	batch := base
	batch.Batch = 16
	if _, ok := c.Lookup(batch); ok {
		t.Error("batch change hit the cache")
	}
	clus := base
	clus.Cluster = cluster.Homogeneous(gpu.V100, 4)
	if _, ok := c.Lookup(clus); ok {
		t.Error("cluster change hit the cache")
	}
	knob := base
	knob.MaxSplits = 5
	if _, ok := c.Lookup(knob); ok {
		t.Error("MaxSplits change hit the cache")
	}
	slo := base
	slo.SLO = 0.2
	if _, ok := c.Lookup(slo); ok {
		t.Error("SLO change hit the cache")
	}

	// Disabling a ramp changes the model's planning identity even though
	// the pointer is unchanged.
	ramps := base.Model.ActiveRamps()
	if err := base.Model.Disable(ramps[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(base); ok {
		t.Error("active-ramp change hit the cache")
	}
}

// TestPlanCacheFIFO: bounded capacity evicts oldest-first, the hit/miss
// counters track Lookup outcomes.
func TestPlanCacheFIFO(t *testing.T) {
	c := NewPlanCache(2, 0.02)
	a := cacheProblem(flatSurv(12, 0.2))
	b := cacheProblem(flatSurv(12, 0.5))
	d := cacheProblem(flatSurv(12, 0.8))
	c.Store(a, optimizer.Plan{GPUs: 1})
	c.Store(b, optimizer.Plan{GPUs: 2})
	if len(c.entries) != 2 {
		t.Fatalf("len %d, want 2", len(c.entries))
	}
	c.Store(d, optimizer.Plan{GPUs: 3}) // evicts the oldest (a)
	if _, ok := c.Lookup(a); ok {
		t.Error("oldest entry survived eviction")
	}
	if got, ok := c.Lookup(b); !ok || got.GPUs != 2 {
		t.Error("entry b evicted early")
	}
	if got, ok := c.Lookup(d); !ok || got.GPUs != 3 {
		t.Error("entry d missing")
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 2/1", c.Hits, c.Misses)
	}
}

// TestPlanCacheStableForecastGate is the verify gate's cache criterion:
// on a stable workload with replanning forced every window, the replans
// after the forecast settles must be answered from the cache, with the
// hits visible per-window, in the result counters, and on the
// control-plane telemetry track.
func TestPlanCacheStableForecastGate(t *testing.T) {
	tr := telemetry.New()
	cfg := DriftingDemo(8, forecast.MethodARIMA, tr)
	cfg.Workload = steadyMix // constant Mix(0.8): the forecast settles
	cfg.DriftThreshold = -1  // force a replan every window
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replans != 8 {
		t.Fatalf("replans %d, want one per window", res.Replans)
	}
	if res.PlanCacheHits == 0 {
		t.Fatal("stable forecast produced zero plan-cache hits; replans are not taking the cache path")
	}
	if res.PlanCacheHits+res.PlanCacheMisses != res.Replans {
		t.Errorf("hits %d + misses %d != replans %d",
			res.PlanCacheHits, res.PlanCacheMisses, res.Replans)
	}
	if res.PlanCacheHits < res.Replans/2 {
		t.Errorf("only %d/%d replans hit the cache on a stable forecast", res.PlanCacheHits, res.Replans)
	}

	perWindow := 0
	for _, w := range res.Windows {
		if w.PlanCacheHit {
			perWindow++
			if !w.Replanned {
				t.Errorf("window %d: cache hit without a replan", w.Window)
			}
		}
	}
	if perWindow != res.PlanCacheHits {
		t.Errorf("per-window hits %d != result hits %d", perWindow, res.PlanCacheHits)
	}

	spans := 0
	for _, s := range tr.Spans() {
		if s.Kind == telemetry.KindPlanCache {
			spans++
			if s.Track != "control-plane" {
				t.Errorf("plan-cache span on track %q", s.Track)
			}
			if s.End != s.Start {
				t.Errorf("plan-cache span has duration %v", s.Duration())
			}
		}
	}
	if spans != res.PlanCacheHits {
		t.Errorf("%d plan-cache spans, %d hits", spans, res.PlanCacheHits)
	}

	// Cached replans still audit clean and still count as replans in the
	// diff history (the telemetry-reconciliation invariant).
	if !res.Report.OK() {
		t.Errorf("conservation violations with caching: %v", res.Report.Violations)
	}
	if res.Diffs.Total() != res.Replans {
		t.Errorf("diff history %d != replans %d", res.Diffs.Total(), res.Replans)
	}
}

// TestPlanCacheServesWithinSLO: a run that leans on cached plans must stay
// audit-clean and keep serving within the SLO — reuse can change which
// plan serves a window, never whether the plan is valid.
func TestPlanCacheServesWithinSLO(t *testing.T) {
	cfg := DriftingDemo(8, forecast.MethodARIMA, nil)
	cfg.Workload = steadyMix
	cfg.DriftThreshold = -1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanCacheHits == 0 {
		t.Fatal("no cache hits; scenario does not exercise the cache")
	}
	if !res.Report.OK() {
		t.Fatalf("conservation violations with cached plans: %v", res.Report.Violations)
	}
	for _, w := range res.Windows {
		if w.PlanCacheHit && w.SLOAttainment < 0.9 {
			t.Errorf("window %d served from cache with attainment %.3f", w.Window, w.SLOAttainment)
		}
	}
	if res.FinalPlan.Latency > cfg.SLO {
		t.Errorf("final plan latency %.4f exceeds SLO %.4f", res.FinalPlan.Latency, cfg.SLO)
	}
}
