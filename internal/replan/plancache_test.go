package replan

import (
	"testing"

	"e3/internal/cluster"
	"e3/internal/forecast"
	"e3/internal/gpu"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/telemetry"
)

func flatProfile(L int, v float64) profile.Batch {
	s := make([]float64, L)
	for i := range s {
		s[i] = v
	}
	return profile.NewBatch(s)
}

// TestPlanCacheToleranceMatching: a forecast within the per-layer
// tolerance of a cached one, searched on the same inventory, reuses its
// plan (the oldest such entry first); a forecast beyond it, of another
// depth, or on another inventory does not.
func TestPlanCacheToleranceMatching(t *testing.T) {
	l := &loop{res: &Result{}}
	l.store("8xV100", flatProfile(12, 0.500), optimizer.Plan{GPUs: 3})
	l.store("8xV100", flatProfile(12, 0.510), optimizer.Plan{GPUs: 4})

	if got, ok := l.lookup("8xV100", flatProfile(12, 0.515)); !ok || got.GPUs != 3 {
		t.Errorf("forecast within tolerance: got %+v hit=%t, want the oldest entry (3 GPUs)", got, ok)
	}
	if got, ok := l.lookup("8xV100", flatProfile(12, 0.525)); !ok || got.GPUs != 4 {
		t.Errorf("forecast within tolerance of the newer entry only: got %+v hit=%t, want 4 GPUs", got, ok)
	}
	if _, ok := l.lookup("8xV100", flatProfile(12, 0.55)); ok {
		t.Error("forecast beyond tolerance hit the cache")
	}
	if _, ok := l.lookup("8xV100", flatProfile(6, 0.5)); ok {
		t.Error("forecast of another depth hit the cache")
	}
	if _, ok := l.lookup("4xV100", flatProfile(12, 0.5)); ok {
		t.Error("another device pool hit the cache")
	}
	if l.res.PlanCacheHits != 2 || l.res.PlanCacheMisses != 3 {
		t.Errorf("hits=%d misses=%d, want 2/3", l.res.PlanCacheHits, l.res.PlanCacheMisses)
	}
}

// TestPlanCacheFIFO: the cache holds planCacheSize plans and evicts the
// oldest first; the hit/miss counters track lookup outcomes.
func TestPlanCacheFIFO(t *testing.T) {
	l := &loop{res: &Result{}}
	surv := func(i int) profile.Batch { return flatProfile(12, 0.05*float64(i)) }
	for i := 0; i <= planCacheSize; i++ { // one more than fits
		l.store("8xV100", surv(i), optimizer.Plan{GPUs: i})
	}
	if len(l.cache) != planCacheSize {
		t.Fatalf("len %d, want %d", len(l.cache), planCacheSize)
	}
	if _, ok := l.lookup("8xV100", surv(0)); ok {
		t.Error("oldest entry survived eviction")
	}
	if got, ok := l.lookup("8xV100", surv(1)); !ok || got.GPUs != 1 {
		t.Error("second-oldest entry evicted early")
	}
	if got, ok := l.lookup("8xV100", surv(planCacheSize)); !ok || got.GPUs != planCacheSize {
		t.Error("newest entry missing")
	}
	if l.res.PlanCacheHits != 2 || l.res.PlanCacheMisses != 1 {
		t.Errorf("hits=%d misses=%d, want 2/1", l.res.PlanCacheHits, l.res.PlanCacheMisses)
	}
}

// TestPlanCachePoolsByInventory: the reserved and full device pools are
// keyed by what they hold, so a spike reserve that leaves the pool
// unchanged (a one-device cluster) shares cached plans across the
// toggle, and one that shrinks it does not.
func TestPlanCachePoolsByInventory(t *testing.T) {
	for _, tc := range []struct {
		gpus, buffers int
		same          bool
	}{{1, 1, true}, {8, 0, true}, {8, 2, false}} {
		cfg := DriftingDemo(1, forecast.MethodARIMA, nil)
		cfg.Cluster = cluster.Homogeneous(gpu.V100, tc.gpus)
		cfg.BufferGPUs = tc.buffers
		l := newLoop(cfg)
		l.coll.Stop()
		if got := l.reservedInv == l.fullInv; got != tc.same {
			t.Errorf("%d GPUs, %d buffers: reserved %q, full %q; same=%t, want %t",
				tc.gpus, tc.buffers, l.reservedInv, l.fullInv, got, tc.same)
		}
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
