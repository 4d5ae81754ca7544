package optimizer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/profile"
)

// TestPlanInvariantsProperty fuzzes the planner over random survival
// profiles, cluster sizes and batch sizes, asserting the structural
// invariants every emitted plan must satisfy:
//   - splits cover layers 1..L contiguously
//   - every split has ≥1 replica of a kind present in the cluster
//   - total replicas per kind within inventory
//   - latency within the slacked SLO, goodput positive and finite
//   - every split fits its device's memory
func TestPlanInvariantsProperty(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	L := m.Base.NumLayers()
	rng := rand.New(rand.NewSource(31))

	f := func(rawSurv [12]uint8, rawBatch, rawGPUs uint8, hetero bool) bool {
		// Build a random (clamped) survival curve.
		surv := make([]float64, L)
		v := 1.0
		for k := 0; k < L; k++ {
			v -= float64(rawSurv[k]%32) / 256
			if v < 0 {
				v = 0
			}
			surv[k] = v
		}
		prof := profile.NewBatch(surv)

		batch := int(rawBatch%16) + 1
		n := int(rawGPUs%24) + 2
		var clus *cluster.Cluster
		if hetero {
			clus = cluster.New(map[gpu.Kind]int{
				gpu.V100: n/2 + 1, gpu.K80: n / 2, gpu.P100: n / 3,
			}, 2)
		} else {
			clus = cluster.Homogeneous(gpu.V100, n)
		}

		cfg := NewConfig(m, prof, batch, clus, 0.5)
		plan, err := MaximizeGoodput(cfg)

		// The retained reference search and the memoized path (with a
		// shared prebuilt cost table) must agree with the fast default on
		// every fuzzed problem, feasible or not.
		ref, refErr := MaximizeGoodputReference(cfg)
		if (err == nil) != (refErr == nil) {
			return false
		}
		memoCfg := cfg
		memoCfg.Costs = NewCostTableFor(cfg)
		memo, memoErr := MaximizeGoodput(memoCfg)
		if (err == nil) != (memoErr == nil) {
			return false
		}
		if err != nil {
			return true // infeasible is a valid outcome
		}
		if plan.String() != ref.String() || plan.String() != memo.String() {
			return false
		}
		// Coverage.
		want := 1
		used := map[gpu.Kind]int{}
		for _, s := range plan.Splits {
			if s.From != want || s.To < s.From {
				return false
			}
			if s.Replicas < 1 {
				return false
			}
			used[s.Kind] += s.Replicas
			if !SplitFits(m, s.From, s.To, batch, s.Kind) {
				return false
			}
			want = s.To + 1
		}
		if want != L+1 {
			return false
		}
		avail := clus.Counts()
		for k, u := range used {
			if u > avail[k] {
				return false
			}
		}
		if plan.Latency > cfg.SLO*(1-cfg.SlackFrac)+1e-9 {
			return false
		}
		return plan.Goodput > 0 && plan.GPUs <= clus.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestMinimalAllocNeverBeatsMaxRate checks dominance: for the same
// setting, the minimal allocation for a target never exceeds the
// max-rate plan's GPUs-for-goodput frontier.
func TestMinimalAllocNeverBeatsMaxRate(t *testing.T) {
	cfg := bertConfig(8, 0.8, cluster.Homogeneous(gpu.V100, 24))
	full, err := MaximizeGoodput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8} {
		target := full.Goodput * frac
		p, err := MinimizeGPUs(cfg, target)
		if err != nil {
			t.Fatalf("target %v infeasible: %v", target, err)
		}
		if p.GPUs > full.GPUs {
			t.Errorf("minimal plan for %.0f%% target uses %d GPUs > full plan's %d", frac*100, p.GPUs, full.GPUs)
		}
		if p.Goodput < target {
			t.Errorf("minimal plan misses its target: %v < %v", p.Goodput, target)
		}
	}
}
