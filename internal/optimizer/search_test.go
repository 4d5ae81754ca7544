package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/profile"
	"e3/internal/workload"
)

// randomProblem builds a varied but reproducible planning problem: mixed
// workload difficulty, 1-3 GPU kinds with small counts, batch and split
// budget jittered. Shared by the determinism and oracle-equivalence tests.
func randomProblem(rng *rand.Rand) Config {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	easy := 0.1 + 0.8*rng.Float64()
	kinds := append([]gpu.Kind(nil), gpu.Kinds()...)
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	counts := map[gpu.Kind]int{}
	for _, k := range kinds[:1+rng.Intn(3)] {
		counts[k] = 2 + rng.Intn(8)
	}
	batches := []int{4, 8, 16}
	return Config{
		Model:         m,
		Profile:       profile.FromDist(m, workload.Mix(easy), 3000, rng.Int63()),
		Batch:         batches[rng.Intn(len(batches))],
		Cluster:       cluster.New(counts, 2),
		SLO:           0.05 + 0.15*rng.Float64(),
		SlackFrac:     0.2,
		MinExitFrac:   DefaultMinExitFrac,
		MaxSplits:     2 + rng.Intn(3),
		Pipelining:    rng.Intn(4) > 0,
		ModelParallel: true,
	}
}

func traceTotalsEqual(t *testing.T, label string, a, b *SearchTrace) {
	t.Helper()
	if a.Enumerated != b.Enumerated || a.Feasible != b.Feasible ||
		a.PrunedSubtrees != b.PrunedSubtrees || a.PrunedCandidates != b.PrunedCandidates ||
		a.Beaten != b.Beaten {
		t.Errorf("%s: trace totals differ: enum %d/%d feas %d/%d prunedSub %d/%d prunedCand %d/%d beaten %d/%d",
			label, a.Enumerated, b.Enumerated, a.Feasible, b.Feasible,
			a.PrunedSubtrees, b.PrunedSubtrees, a.PrunedCandidates, b.PrunedCandidates,
			a.Beaten, b.Beaten)
	}
	for _, r := range []RejectReason{RejectMemory, RejectReplicas, RejectSLO, RejectRate, RejectDegenerate} {
		if a.Rejected[r] != b.Rejected[r] {
			t.Errorf("%s: Rejected[%s] %d vs %d", label, r, a.Rejected[r], b.Rejected[r])
		}
	}
	if len(a.RunnersUp) != len(b.RunnersUp) {
		t.Errorf("%s: runners-up count %d vs %d", label, len(a.RunnersUp), len(b.RunnersUp))
		return
	}
	for i := range a.RunnersUp {
		if a.RunnersUp[i].Plan.String() != b.RunnersUp[i].Plan.String() ||
			a.RunnersUp[i].Score != b.RunnersUp[i].Score {
			t.Errorf("%s: runner-up %d differs: %s (%.4f) vs %s (%.4f)", label, i,
				a.RunnersUp[i].Plan, a.RunnersUp[i].Score, b.RunnersUp[i].Plan, b.RunnersUp[i].Score)
		}
	}
}

// TestSearchDeterminismAndOracleEquivalence is the contract for the fast
// path: across many random problems and all three objectives,
//
//  1. the parallel search returns a byte-identical plan AND a byte-identical
//     trace to the serial search, regardless of worker count;
//  2. both return the same winner as the retained reference search; and
//  3. the fast trace still accounts exactly, with the reference's larger
//     enumeration equal to fast enumeration plus dominance-pruned candidates.
func TestSearchDeterminismAndOracleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const seeds = 50
	for trial := 0; trial < seeds; trial++ {
		base := randomProblem(rng)

		// Objective targets derive from the max-goodput solution when one
		// exists; otherwise the min objectives are exercised on a target
		// that must also fail, which checks error parity.
		refMax, refErr := MaximizeGoodputReference(base)
		target := 1.0
		if refErr == nil {
			target = refMax.Goodput * 0.5
		}

		type objRun struct {
			name string
			ref  func(Config) (Plan, error)
			fast func(Config) (Plan, error)
		}
		objs := []objRun{
			{"max-goodput", MaximizeGoodputReference, MaximizeGoodput},
			{"min-gpus",
				func(c Config) (Plan, error) { return MinimizeGPUsReference(c, target) },
				func(c Config) (Plan, error) { return MinimizeGPUs(c, target) }},
			{"min-cost",
				func(c Config) (Plan, error) { return MinimizeCostReference(c, target) },
				func(c Config) (Plan, error) { return MinimizeCost(c, target) }},
		}
		for _, o := range objs {
			label := fmt.Sprintf("trial %d %s", trial, o.name)

			refCfg := base
			refCfg.Trace = &SearchTrace{}
			refPlan, refErr := o.ref(refCfg)

			serCfg := base
			serCfg.Workers = -1 // force single-threaded
			serCfg.Trace = &SearchTrace{}
			serPlan, serErr := o.fast(serCfg)

			parCfg := base
			parCfg.Workers = 8
			parCfg.Trace = &SearchTrace{}
			parPlan, parErr := o.fast(parCfg)

			if (refErr == nil) != (serErr == nil) || (serErr == nil) != (parErr == nil) {
				t.Fatalf("%s: error parity broken: ref=%v serial=%v parallel=%v",
					label, refErr, serErr, parErr)
			}
			if refErr != nil {
				if refErr.Error() != serErr.Error() {
					t.Errorf("%s: error text differs: %q vs %q", label, refErr, serErr)
				}
				continue
			}
			if serPlan.String() != parPlan.String() {
				t.Fatalf("%s: parallel winner differs from serial:\n  serial:   %s\n  parallel: %s",
					label, serPlan, parPlan)
			}
			if refPlan.String() != serPlan.String() {
				t.Fatalf("%s: fast winner differs from reference:\n  reference: %s\n  fast:      %s",
					label, refPlan, serPlan)
			}
			traceTotalsEqual(t, label, serCfg.Trace, parCfg.Trace)
			for _, tr := range []*SearchTrace{refCfg.Trace, serCfg.Trace, parCfg.Trace} {
				if !tr.Accounted() {
					t.Errorf("%s: trace accounting identity broken", label)
				}
			}
			if got, want := serCfg.Trace.Enumerated+serCfg.Trace.PrunedCandidates, refCfg.Trace.Enumerated; got != want {
				t.Errorf("%s: fast enumerated (%d) + pruned (%d) = %d, reference enumerated %d",
					label, serCfg.Trace.Enumerated, serCfg.Trace.PrunedCandidates, got, want)
			}
		}
	}
}

// TestWorkerCountIrrelevant sweeps worker counts on one problem: every
// choice must give byte-identical plans and traces (the chunked reducer,
// not goroutine scheduling, decides the winner).
func TestWorkerCountIrrelevant(t *testing.T) {
	cfg := bertConfig(8, 0.8, cluster.PaperEvaluation())
	var wantPlan string
	var wantTrace *SearchTrace
	for _, w := range []int{-1, 1, 2, 3, 5, 8, 16} {
		c := cfg
		c.Workers = w
		c.Trace = &SearchTrace{}
		p, err := MaximizeGoodput(c)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if wantTrace == nil {
			wantPlan, wantTrace = p.String(), c.Trace
			continue
		}
		if p.String() != wantPlan {
			t.Errorf("workers=%d: plan %s, want %s", w, p, wantPlan)
		}
		traceTotalsEqual(t, fmt.Sprintf("workers=%d", w), c.Trace, wantTrace)
	}
}

// TestDominancePruningActuallyPrunes guards the perf claim structurally:
// on the paper's heterogeneous cluster the bound must kill a substantial
// share of the assignment space before evaluation.
func TestDominancePruningActuallyPrunes(t *testing.T) {
	cfg := bertConfig(8, 0.8, cluster.PaperEvaluation())
	cfg.Trace = &SearchTrace{}
	if _, err := MaximizeGoodput(cfg); err != nil {
		t.Fatal(err)
	}
	tr := cfg.Trace
	if tr.PrunedCandidates == 0 {
		t.Fatal("dominance pruning eliminated nothing on the paper cluster")
	}
	total := tr.Enumerated + tr.PrunedCandidates
	if frac := float64(tr.PrunedCandidates) / float64(total); frac < 0.25 {
		t.Errorf("pruned only %.1f%% of %d candidates; bound too weak", frac*100, total)
	}
	if !tr.Accounted() {
		t.Error("trace accounting identity broken")
	}
	var buf strings.Builder
	tr.WriteExplain(&buf)
	if !strings.Contains(buf.String(), "pruned:") {
		t.Errorf("explain output missing pruned line:\n%s", buf.String())
	}
}

// --- Config.withDefaults: zero-value semantics -------------------------

// TestExplicitZeroMinExitFracHonored is the regression for the old
// footgun where MinExitFrac: 0 was silently replaced by the 2% default.
// With an explicit zero, no ramp may be dropped from the candidate set.
func TestExplicitZeroMinExitFracHonored(t *testing.T) {
	mk := func(easy, minExit float64) Config {
		c := bertConfig(8, easy, cluster.Homogeneous(gpu.V100, 8))
		c.MinExitFrac = minExit
		c.MaxBoundaryCands = -1 // uncapped: exit-mass filtering is the only gate
		c.Trace = &SearchTrace{}
		return c
	}

	// Find a workload mix where the 2% default actually drops tail ramps,
	// so the two semantics are distinguishable.
	for _, easy := range []float64{0.9, 0.98, 0.2, 0.05} {
		def := mk(easy, DefaultMinExitFrac)
		if _, err := MaximizeGoodput(def); err != nil {
			t.Fatal(err)
		}
		if def.Trace.PrunedRamps == 0 {
			continue
		}

		zero := mk(easy, 0)
		if _, err := MaximizeGoodput(zero); err != nil {
			t.Fatal(err)
		}
		if zero.Trace.PrunedRamps != 0 {
			t.Errorf("easy=%.2f: MinExitFrac=0 still pruned %d ramp(s); explicit zero must disable the mass filter",
				easy, zero.Trace.PrunedRamps)
		}
		if len(zero.Trace.RampCandidates) <= len(def.Trace.RampCandidates) {
			t.Errorf("easy=%.2f: zero min-exit saw %d candidates, default saw %d; zero should see more",
				easy, len(zero.Trace.RampCandidates), len(def.Trace.RampCandidates))
		}
		return
	}
	t.Fatal("no tested workload mix has sub-2% ramps; pick a mix that discriminates")
}

// TestExplicitZeroSlackFracHonored: SlackFrac: 0 must budget the full SLO
// rather than the default 20% haircut.
func TestExplicitZeroSlackFracHonored(t *testing.T) {
	base := bertConfig(8, 0.8, cluster.Homogeneous(gpu.V100, 8))
	base.SlackFrac = 0
	p, err := MaximizeGoodput(base)
	if err != nil {
		t.Fatal(err)
	}

	// Pin the SLO just above the zero-slack plan's latency. With zero
	// slack the plan stays feasible; with the default 20% haircut the
	// same latency must be rejected.
	tight := base
	tight.SLO = p.Latency * 1.01
	pz, err := MaximizeGoodput(tight)
	if err != nil {
		t.Fatalf("zero slack rejected a plan within the raw SLO: %v", err)
	}
	if pz.Latency <= 0.8*tight.SLO {
		t.Fatalf("test not discriminating: zero-slack plan latency %.4f fits even a 20%% haircut of %.4f",
			pz.Latency, tight.SLO)
	}

	def := tight
	def.SlackFrac = DefaultSlackFrac
	pd, err := MaximizeGoodput(def)
	if err == nil && pd.Latency > (1-DefaultSlackFrac)*def.SLO+1e-12 {
		t.Errorf("default slack admitted latency %.4f over the slacked budget %.4f",
			pd.Latency, (1-DefaultSlackFrac)*def.SLO)
	}
	if err == nil && pd.String() == pz.String() {
		t.Errorf("default slack returned the zero-slack plan; SlackFrac default not applied")
	}
}

// TestWithDefaultsSentinels pins the zero and negative encodings that
// remain, and that SlackFrac and MinExitFrac have none: values outside
// their ranges are rejected rather than defaulted.
func TestWithDefaultsSentinels(t *testing.T) {
	neg := &Config{Workers: -3, MaxBoundaryCands: -2}
	out := neg.withDefaults()
	if out.Workers != 1 {
		t.Errorf("negative Workers -> %d, want 1 (serial)", out.Workers)
	}
	if out.MaxBoundaryCands != -2 {
		t.Errorf("negative MaxBoundaryCands -> %d, want preserved (uncapped)", out.MaxBoundaryCands)
	}
	if out.MaxSplits != DefaultMaxSplits {
		t.Errorf("zero MaxSplits -> %d, want %d", out.MaxSplits, DefaultMaxSplits)
	}

	zero := (&Config{}).withDefaults()
	if zero.MinExitFrac != 0 {
		t.Errorf("explicit zero MinExitFrac -> %v, must stay 0", zero.MinExitFrac)
	}
	if zero.SlackFrac != 0 {
		t.Errorf("explicit zero SlackFrac -> %v, must stay 0", zero.SlackFrac)
	}
	if zero.MaxBoundaryCands != DefaultMaxBoundaryCands {
		t.Errorf("zero MaxBoundaryCands -> %d, want default %d", zero.MaxBoundaryCands, DefaultMaxBoundaryCands)
	}
	if zero.Workers < 1 {
		t.Errorf("zero Workers -> %d, want >= 1", zero.Workers)
	}

	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"SlackFrac", func(c *Config) { c.SlackFrac = -0.5 }},
		{"SlackFrac", func(c *Config) { c.SlackFrac = 1 }},
		{"SlackFrac", func(c *Config) { c.SlackFrac = math.NaN() }},
		{"MinExitFrac", func(c *Config) { c.MinExitFrac = -1 }},
		{"MinExitFrac", func(c *Config) { c.MinExitFrac = 1.5 }},
	} {
		cfg := bertConfig(8, 0.8, cluster.Homogeneous(gpu.V100, 8))
		tc.set(&cfg)
		_, err := MaximizeGoodput(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("SlackFrac %v, MinExitFrac %v: err %v, want a %s range error",
				cfg.SlackFrac, cfg.MinExitFrac, err, tc.field)
		}
	}
}

// TestMaxBoundaryCandsKnob: the former hardcoded top-10 cap is now a knob;
// raising it must widen the explored candidate set.
func TestMaxBoundaryCandsKnob(t *testing.T) {
	run := func(cands int) *SearchTrace {
		c := bertConfig(8, 0.5, cluster.Homogeneous(gpu.V100, 8))
		c.MinExitFrac = 0 // keep every ramp in play so only the cap filters
		c.MaxBoundaryCands = cands
		c.Trace = &SearchTrace{}
		if _, err := MaximizeGoodput(c); err != nil {
			t.Fatalf("cands=%d: %v", cands, err)
		}
		return c.Trace
	}
	small, wide := run(3), run(-1)
	if len(small.RampCandidates) != 3 {
		t.Errorf("cap 3 kept %d candidates", len(small.RampCandidates))
	}
	if len(wide.RampCandidates) <= len(small.RampCandidates) {
		t.Errorf("uncapped kept %d candidates, capped kept %d", len(wide.RampCandidates), len(small.RampCandidates))
	}
	if wide.Enumerated+wide.PrunedCandidates <= small.Enumerated+small.PrunedCandidates {
		t.Errorf("wider candidate set explored no more of the space (%d vs %d)",
			wide.Enumerated+wide.PrunedCandidates, small.Enumerated+small.PrunedCandidates)
	}
}

// TestSearchTraceConcurrentHooks hammers the trace's recording hooks from
// many goroutines; run under -race this proves the hooks are safe for the
// parallel search to call directly.
func TestSearchTraceConcurrentHooks(t *testing.T) {
	base := bertConfig(8, 0.8, cluster.Homogeneous(gpu.V100, 8))
	cfg := base.withDefaults()
	tr := &SearchTrace{}
	tr.begin(cfg, "max-goodput", 0,
		func(a, b Plan) bool { return a.Goodput > b.Goodput },
		func(p Plan) float64 { return p.Goodput })

	const workers, per = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.candidate()
				switch i % 3 {
				case 0:
					tr.reject(RejectSLO)
				case 1:
					tr.reject(RejectMemory)
				default:
					tr.feasible(Plan{Goodput: float64(w*per + i)})
				}
			}
		}(w)
	}
	wg.Wait()
	tr.finish(Plan{Goodput: 1e12}, true, nil)
	if tr.Enumerated != workers*per {
		t.Errorf("enumerated %d, want %d", tr.Enumerated, workers*per)
	}
	if !tr.Accounted() {
		t.Error("trace accounting identity broken")
	}
	if len(tr.RunnersUp) != maxRunnersUp {
		t.Errorf("retained %d runners-up, want %d", len(tr.RunnersUp), maxRunnersUp)
	}
	for i := 1; i < len(tr.RunnersUp); i++ {
		if tr.RunnersUp[i].Score > tr.RunnersUp[i-1].Score {
			t.Errorf("runners-up out of order at %d: %.0f > %.0f",
				i, tr.RunnersUp[i].Score, tr.RunnersUp[i-1].Score)
		}
	}
}
