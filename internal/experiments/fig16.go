package experiments

import (
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/metrics"
	"e3/internal/model"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/workload"
)

func init() {
	register("fig16", Fig16)
	register("fig17", Fig17)
}

// Fig16 reproduces Figure 16: goodput under three easy:hard mixes. E3's
// profiler/optimizer adapt — behaving like an EE model on easy traffic and
// like the stock model on hard traffic.
func Fig16() Table {
	base := model.BERTBase()
	van := ee.NewVanilla(base)
	dee := ee.NewDeeBERT(base, 0.4)
	mk := func() *cluster.Cluster { return cluster.Homogeneous(gpu.V100, 16) }

	t := Table{
		ID:      "fig16",
		Title:   "Workload adaptability: goodput per easy:hard mix (16xV100)",
		Columns: []string{"mix", "batch", "BERT-BASE", "DeeBERT", "E3"},
		Notes:   "paper: EE wins on easy mixes/small batches; stock wins on hard; E3 adapts and leads overall (up to 23% below stock at 20E/80H small batches)",
	}
	for _, mix := range []struct {
		label string
		easy  float64
	}{{"80E/20H", 0.8}, {"50E/50H", 0.5}, {"20E/80H", 0.2}} {
		dist := workload.Mix(mix.easy)
		for _, b := range []int{1, 2, 4, 8} {
			gVan := system{kind: "dataparallel", model: van}.maxGoodput(mk, dist, b, defaultSLO, 161)
			gDee := system{kind: "dataparallel", model: dee}.maxGoodput(mk, dist, b, defaultSLO, 161)
			gE3 := e3Goodput(mk, dee, dist, b, defaultSLO, 161, nil)
			t.Rows = append(t.Rows, []string{mix.label, itoa(b), f0(gVan), f0(gDee), f0(gE3)})
		}
	}
	return t
}

// latencyRun serves a fixed moderate load through s and returns the
// latency summary (zero if the run cannot be built or aborts).
func latencyRun(mk func() *cluster.Cluster, s system, dist workload.Dist, batch int, rate float64, seed int64) metrics.Summary {
	eng := sim.NewEngine()
	coll := scheduler.NewCollector(s.model.Base.NumLayers(), defaultSLO, 0)
	r, err := s.build(eng, mk(), coll)
	if err != nil {
		return metrics.Summary{}
	}
	gen := workload.NewGenerator(dist, seed)
	if _, err := serving.RunClosedLoop(eng, r, gen, batch, rate, 4.0, defaultSLO); err != nil {
		return metrics.Summary{}
	}
	return coll.Lat.Summarize()
}

// Fig17 reproduces Figure 17: latency distributions (min, quartiles, max)
// for the three systems at batch 8 on a 50:50 mix, homogeneous and
// heterogeneous clusters.
func Fig17() Table {
	base := model.BERTBase()
	van := ee.NewVanilla(base)
	dee := ee.NewDeeBERT(base, 0.4)
	dist := workload.Mix(0.5)
	const batch = 8

	t := Table{
		ID:      "fig17",
		Title:   "Latency distribution, batch 8, 50E/50H mix (ms)",
		Columns: []string{"cluster", "system", "min", "p25", "median", "p75", "max"},
		Notes:   "paper: E3 attains the lowest min/median/quartiles; only its tail (hard inputs) pays the split overhead, still within SLO",
	}
	clusters := []struct {
		label string
		mk    func() *cluster.Cluster
	}{
		{"homogeneous", func() *cluster.Cluster { return cluster.Homogeneous(gpu.V100, 16) }},
		{"heterogeneous", func() *cluster.Cluster { return cluster.PaperHeterogeneous() }},
	}
	for _, cl := range clusters {
		// Operate near the weakest system's capacity (the paper serves the
		// common sustainable load): baselines queue heavily there while E3,
		// with far more headroom, stays lightly loaded.
		rate := 0.9 * system{kind: "dataparallel", model: dee}.maxGoodput(cl.mk, dist, batch, defaultSLO, 171)
		if rate <= 0 {
			rate = 500
		}
		labels := []string{"BERT-BASE", "DeeBERT", "E3"}
		systems := []system{{kind: "dataparallel", model: van}, {kind: "dataparallel", model: dee}}
		if plan, err := planE3(cl.mk(), dee, dist, batch, defaultSLO, nil); err == nil {
			systems = append(systems, system{kind: "pipeline", model: dee, plan: plan})
		}
		for i, sys := range systems {
			s := latencyRun(cl.mk, sys, dist, batch, rate, 171)
			t.Rows = append(t.Rows, []string{cl.label, labels[i], ms(s.Min), ms(s.P25), ms(s.Median), ms(s.P75), ms(s.Max)})
		}
	}
	return t
}
