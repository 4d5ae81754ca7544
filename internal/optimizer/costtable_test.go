package optimizer

import (
	"testing"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/exec"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/profile"
	"e3/internal/workload"
)

// TestCostTableMatchesExecExactly pins the memo table to the unmemoized
// primitives bit for bit: stage times to exec.SplitTime, fit verdicts to
// SplitFits, boundary transfers to the worst-case link. Exact float
// equality is deliberate — the fast search must be a pure refactor of the
// reference arithmetic, not an approximation of it.
func TestCostTableMatchesExecExactly(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	L := m.Base.NumLayers()
	const batch = 8
	link := cluster.PaperEvaluation().Topology.WorstCase()

	tbl := NewCostTable(m, batch, false, link)
	for ki, kind := range gpu.Kinds() {
		spec := gpu.Get(kind)
		for from := 1; from <= L; from++ {
			for to := from; to <= L; to++ {
				want := exec.SplitTime(m, from, to, batch, spec)
				if got := tbl.stageTime(ki, from, to); got != want {
					t.Fatalf("stageTime(%s, %d, %d) = %v, exec.SplitTime = %v", kind, from, to, got, want)
				}
				if got, want := tbl.splitFits(ki, from, to), SplitFits(m, from, to, batch, kind); got != want {
					t.Fatalf("splitFits(%s, %d, %d) = %v, SplitFits = %v", kind, from, to, got, want)
				}
			}
		}
	}
	for to := 1; to < L; to++ {
		want := link.TransferTime(m.Base.Layers[to-1].ActBytes * float64(batch))
		if got := tbl.boundaryTransfer(to); got != want {
			t.Fatalf("boundaryTransfer(%d) = %v, want %v", to, got, want)
		}
	}
	if got := tbl.boundaryTransfer(L); got != 0 {
		t.Fatalf("boundaryTransfer(L) = %v, want 0", got)
	}
}

// TestCostTableWrapperMatchesClone: under the exit-wrapper the reference
// clones the model per candidate to disable interior ramps; the table
// must reproduce those clone-based stage times exactly without cloning.
func TestCostTableWrapperMatchesClone(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	L := m.Base.NumLayers()
	const batch = 8
	link := cluster.PaperEvaluation().Topology.WorstCase()
	tbl := NewCostTable(m, batch, true, link)

	for _, b := range m.ActiveRamps() {
		if b >= L {
			continue
		}
		clone := (&Plan{Splits: splitsFromBounds([]int{b}, L), DisabledInteriorRamps: true}).ExecModel(m)
		for ki, kind := range gpu.Kinds() {
			spec := gpu.Get(kind)
			for _, seg := range [][2]int{{1, b}, {b + 1, L}} {
				want := exec.SplitTime(clone, seg[0], seg[1], batch, spec)
				if got := tbl.stageTime(ki, seg[0], seg[1]); got != want {
					t.Fatalf("wrapper stageTime(%s, %d, %d) = %v, clone SplitTime = %v",
						kind, seg[0], seg[1], got, want)
				}
			}
		}
	}
}

// TestCostTableCompatibility: a table is reusable across objectives and
// windows exactly while the planning problem's geometry holds still.
func TestCostTableCompatibility(t *testing.T) {
	cfg := bertConfig(8, 0.8, cluster.PaperEvaluation())
	tbl := NewCostTableFor(cfg)
	if !tbl.CompatibleWith(cfg) {
		t.Fatal("fresh table incompatible with its own config")
	}

	bigger := cfg
	bigger.Cluster = cluster.Homogeneous(gpu.V100, 4)
	if !tbl.CompatibleWith(bigger) {
		t.Error("cluster inventory change should not invalidate the table")
	}

	batch := cfg
	batch.Batch = 16
	if tbl.CompatibleWith(batch) {
		t.Error("batch change must invalidate the table")
	}

	wrap := cfg
	wrap.DisableInteriorRamps = true
	if tbl.CompatibleWith(wrap) {
		t.Error("execution-mode change must invalidate the table")
	}

	ramps := cfg.Model.ActiveRamps()
	if err := cfg.Model.Disable(ramps[0]); err != nil {
		t.Fatal(err)
	}
	if tbl.CompatibleWith(cfg) {
		t.Error("active-ramp change must invalidate the table")
	}
	if err := cfg.Model.Enable(ramps[0]); err != nil {
		t.Fatal(err)
	}
	if !tbl.CompatibleWith(cfg) {
		t.Error("restoring the ramp set must restore compatibility")
	}

	var nilTbl *CostTable
	if nilTbl.CompatibleWith(cfg) {
		t.Error("nil table must be incompatible")
	}
}

// TestSharedCostTableAcrossObjectives: one prebuilt table attached via
// Config.Costs must leave all three objectives' plans unchanged.
func TestSharedCostTableAcrossObjectives(t *testing.T) {
	cfg := bertConfig(8, 0.8, cluster.PaperEvaluation())
	full, err := MaximizeGoodput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	target := full.Goodput * 0.5
	gpus, err := MinimizeGPUs(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := MinimizeCost(cfg, target)
	if err != nil {
		t.Fatal(err)
	}

	shared := cfg
	shared.Costs = NewCostTableFor(cfg)
	for name, want := range map[string]string{
		"max-goodput": full.String(), "min-gpus": gpus.String(), "min-cost": cost.String(),
	} {
		var got Plan
		var err error
		switch name {
		case "max-goodput":
			got, err = MaximizeGoodput(shared)
		case "min-gpus":
			got, err = MinimizeGPUs(shared, target)
		default:
			got, err = MinimizeCost(shared, target)
		}
		if err != nil {
			t.Fatalf("%s with shared table: %v", name, err)
		}
		if got.String() != want {
			t.Errorf("%s with shared table: %s, want %s", name, got, want)
		}
	}
}

// TestCostTableProfileIndependent: the table ignores the exit profile
// (stage time is profile-independent; only handoffs depend on it), so
// replan windows with different forecasts share one table.
func TestCostTableProfileIndependent(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	clus := cluster.Homogeneous(gpu.V100, 8)
	mk := func(easy float64) Config {
		return Config{
			Model: m, Profile: profile.FromDist(m, workload.Mix(easy), 4000, 1),
			Batch: 8, Cluster: clus,
			SLO: 0.1, SlackFrac: 0.2, MinExitFrac: DefaultMinExitFrac,
			Pipelining: true, ModelParallel: true,
		}
	}
	tbl := NewCostTableFor(mk(0.9))
	for _, easy := range []float64{0.2, 0.5, 0.9} {
		cfg := mk(easy)
		if !tbl.CompatibleWith(cfg) {
			t.Fatalf("easy=%.1f: table should be profile-independent", easy)
		}
		plain, err1 := MaximizeGoodput(cfg)
		cfg.Costs = tbl
		memo, err2 := MaximizeGoodput(cfg)
		if err1 != nil || err2 != nil {
			t.Fatalf("easy=%.1f: %v / %v", easy, err1, err2)
		}
		if plain.String() != memo.String() {
			t.Errorf("easy=%.1f: shared table changed plan: %s vs %s", easy, memo, plain)
		}
	}
}
