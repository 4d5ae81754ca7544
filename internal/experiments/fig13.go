package experiments

import (
	"math"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/workload"
)

func init() {
	register("fig13", Fig13)
	register("fig14", Fig14)
	register("fig15", Fig15)
}

// Fig13 reproduces Figure 13: at equal cost (~$0.013/s), E3 exploits a
// heterogeneous mix (6 V100 + 8 P100 + 15 K80) that neither baseline can
// use well — EE models prefer cheap GPUs, non-EE models fast ones, E3
// places splits across both.
func Fig13() Table {
	base := model.BERTBase()
	van := ee.NewVanilla(base)
	dee := ee.NewDeeBERT(base, 0.4)
	dist := mix80()
	hom := func() *cluster.Cluster { return cluster.Homogeneous(gpu.V100, 16) }
	het := func() *cluster.Cluster { return cluster.PaperHeterogeneous() }

	t := Table{
		ID:    "fig13",
		Title: "Heterogeneous equal-cost clusters (~$0.013/s), GLUE 80E/20H",
		Columns: []string{"batch", "BERT-BASE (samples/s)", "DeeBERT (samples/s)", "E3-het (samples/s)",
			"E3/best-baseline"},
		Notes: "paper: E3 up to 1.70x; baselines cannot exploit heterogeneity (each sticks to one kind)",
	}
	for _, b := range []int{1, 2, 4, 8} {
		// Each baseline gets its better of the two equal-cost clusters
		// (the paper's configurations: 16 V100, or 6 V100 + 8 P100 + 15 K80).
		bestOf := func(m *ee.EEModel) float64 {
			s := system{kind: "dataparallel", model: m}
			return math.Max(s.maxGoodput(hom, dist, b, defaultSLO, 131), s.maxGoodput(het, dist, b, defaultSLO, 131))
		}
		gVan, gDee := bestOf(van), bestOf(dee)
		gE3 := e3Goodput(het, dee, dist, b, defaultSLO, 131, nil)
		best := math.Max(gVan, gDee)
		r := 0.0
		if best > 0 {
			r = gE3 / best
		}
		t.Rows = append(t.Rows, []string{itoa(b), f0(gVan), f0(gDee), f0(gE3), f2(r)})
	}
	return t
}

// perGPUGoodput estimates a data-parallel baseline's per-GPU goodput.
func perGPUGoodput(m *ee.EEModel, dist workload.Dist, batch int, kind gpu.Kind, slo float64, seed int64) float64 {
	one := func() *cluster.Cluster { return cluster.Homogeneous(kind, 2) }
	return system{kind: "dataparallel", model: m}.maxGoodput(one, dist, batch, slo, seed) / 2
}

// Fig14 reproduces Figure 14: the number of V100s each system needs to
// sustain 6000 samples/s.
func Fig14() Table {
	const target = 6000.0
	base := model.BERTBase()
	van := ee.NewVanilla(base)
	dee := ee.NewDeeBERT(base, 0.4)
	dist := mix80()
	big := cluster.Homogeneous(gpu.V100, 64)

	t := Table{
		ID:      "fig14",
		Title:   "V100s needed for 6000 samples/s (GLUE 80E/20H, SLO 100ms)",
		Columns: []string{"batch", "BERT-BASE", "DeeBERT", "E3"},
		Notes:   "paper: E3 needs the fewest GPUs at every batch size",
	}
	for _, b := range []int{1, 2, 4, 8} {
		nVan := gpusFor(target, perGPUGoodput(van, dist, b, gpu.V100, defaultSLO, 141))
		nDee := gpusFor(target, perGPUGoodput(dee, dist, b, gpu.V100, defaultSLO, 141))
		nE3 := "-"
		prof := profile.FromDist(dee, dist, 8000, 1)
		if p, err := optimizer.MinimizeGPUs(optimizer.NewConfig(dee, prof, b, big, defaultSLO), target); err == nil {
			nE3 = itoa(p.GPUs)
		}
		t.Rows = append(t.Rows, []string{itoa(b), nVan, nDee, nE3})
	}
	return t
}

func gpusFor(target, perGPU float64) string {
	if perGPU <= 0 {
		return "-"
	}
	return itoa(int(math.Ceil(target / perGPU)))
}

// Fig15 reproduces Figure 15: the cheapest configuration sustaining 6000
// samples/s on a heterogeneous pool, in dollars per minute.
func Fig15() Table {
	const target = 6000.0
	base := model.BERTBase()
	van := ee.NewVanilla(base)
	dee := ee.NewDeeBERT(base, 0.4)
	dist := mix80()
	// A deep heterogeneous pool for the search.
	pool := cluster.New(map[gpu.Kind]int{gpu.V100: 48, gpu.P100: 48, gpu.K80: 48}, 2)

	t := Table{
		ID:      "fig15",
		Title:   "Cheapest config for 6000 samples/s ($/min, heterogeneous pool)",
		Columns: []string{"batch", "BERT-BASE ($/min)", "DeeBERT ($/min)", "E3 ($/min)"},
		Notes:   "paper: E3 achieves the target at up to 35% lower cost",
	}
	kinds := []gpu.Kind{gpu.V100, gpu.P100, gpu.K80}
	for _, b := range []int{1, 2, 4, 8} {
		t.Rows = append(t.Rows, []string{
			itoa(b),
			cheapestBaseline(van, dist, b, target, 151, kinds),
			cheapestBaseline(dee, dist, b, target, 151, kinds),
			cheapestE3(dee, dist, b, target, pool),
		})
	}
	return t
}

// cheapestBaseline picks the best single GPU kind (from the same pool E3
// draws on) for a data-parallel baseline and prices the required count.
func cheapestBaseline(m *ee.EEModel, dist workload.Dist, batch int, target float64, seed int64, kinds []gpu.Kind) string {
	best := math.Inf(1)
	for _, k := range kinds {
		per := perGPUGoodput(m, dist, batch, k, defaultSLO, seed)
		if per <= 0 {
			continue
		}
		n := math.Ceil(target / per)
		cost := n * gpu.Get(k).CostPerSecond() * 60
		if cost < best {
			best = cost
		}
	}
	if math.IsInf(best, 1) {
		return "-"
	}
	return f2(best)
}

func cheapestE3(m *ee.EEModel, dist workload.Dist, batch int, target float64, pool *cluster.Cluster) string {
	prof := profile.FromDist(m, dist, 8000, 1)
	p, err := optimizer.MinimizeCost(optimizer.NewConfig(m, prof, batch, pool, defaultSLO), target)
	if err != nil {
		return "-"
	}
	return f2(p.CostPerSec * 60)
}
