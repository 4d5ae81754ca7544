package experiments

import (
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/trace"
	"e3/internal/workload"
)

func init() {
	register("fig18", Fig18)
	register("fig19", Fig19)
}

// Fig18 reproduces Figure 18: E3 generalizes across EE architectures —
// here PABEE's patience-counter ramps on BERT-LARGE.
func Fig18() Table {
	base := model.BERTLarge()
	return runTriple(tripleSpec{
		id:        "fig18",
		title:     "EE-architecture generality: PABEE on BERT-LARGE (16xV100)",
		names:     [3]string{"BERT-LARGE", "PABEE", "E3"},
		vanilla:   ee.NewVanilla(base),
		naive:     ee.NewPABEE(base, 6),
		dist:      mix80(),
		batches:   []int{1, 2, 4, 8},
		mkCluster: func() *cluster.Cluster { return cluster.Homogeneous(gpu.V100, 16) },
		slo:       0.250, // BERT-LARGE needs a looser bound than BASE
		seed:      181,
		notes:     "paper: E3 up to 1.55x over PABEE",
	})
}

// Fig19 reproduces Figure 19: the scaled Twitter trace — extreme bursts,
// long idle stretches, GPU utilization under 50%. Open-loop clients with
// dynamic batching.
func Fig19() Table {
	base := model.BERTBase()
	van := ee.NewVanilla(base)
	dee := ee.NewDeeBERT(base, 0.4)
	dist := mix80()
	mk := func() *cluster.Cluster { return cluster.Homogeneous(gpu.V100, 16) }
	const (
		batch   = 8
		avgRate = 1000.0
		horizon = 300.0
	)
	arr := trace.Bursty(trace.DefaultBursty(avgRate), horizon, 191)

	runOne := func(s system) (goodput, util float64) {
		eng := sim.NewEngine()
		r, err := s.build(eng, mk(), scheduler.NewCollector(base.NumLayers(), defaultSLO, 0))
		if err != nil {
			return 0, 0
		}
		b := serving.NewBatcher(eng, r, batch, s.est(), defaultSlack)
		gen := workload.NewGenerator(dist, 191)
		c, err := serving.RunOpenLoopStream(eng, r, b, trace.NewSliceStream(arr), gen, defaultSLO)
		if err != nil {
			return 0, 0
		}
		return c.Good.Goodput(), c.Util.Utilization(eng.Now())
	}

	t := Table{
		ID:      "fig19",
		Title:   "Extremely bursty open-loop workload (Twitter trace, ~1000 req/s avg)",
		Columns: []string{"system", "goodput (req/s)", "GPU util (%)"},
		Notes:   "paper: E3 +29% over DeeBERT, +16% over BERT-BASE; utilization stays under 50%",
	}
	gVan, uVan := runOne(system{kind: "dataparallel", model: van})
	gDee, uDee := runOne(system{kind: "dataparallel", model: dee})
	gE3, uE3 := 0.0, 0.0
	if plan, err := planE3(mk(), dee, dist, batch, defaultSLO, nil); err == nil {
		gE3, uE3 = runOne(system{kind: "pipeline", model: dee, plan: plan})
	}
	t.Rows = append(t.Rows,
		[]string{"BERT-BASE", f0(gVan), f1(uVan * 100)},
		[]string{"DeeBERT", f0(gDee), f1(uDee * 100)},
		[]string{"E3", f0(gE3), f1(uE3 * 100)},
	)
	return t
}
