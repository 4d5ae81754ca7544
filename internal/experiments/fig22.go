package experiments

import (
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/workload"
)

func init() {
	register("fig22", Fig22)
	register("fig23", Fig23)
}

// Fig22 reproduces Figure 22: sensitivity to batch-profile misprediction
// on the Llama setup. Errors only shave goodput (plans become suboptimal);
// correctness is untouched.
func Fig22() Table {
	base := model.Llama318B()
	m := ee.NewLlamaEE(base)
	dist := workload.BoolQ()
	mk := func() *cluster.Cluster { return cluster.Homogeneous(gpu.A6000, 4) }
	const slo = 0.5

	t := Table{
		ID:      "fig22",
		Title:   "Goodput under injected profile-prediction error (Llama-3.1-8B)",
		Columns: []string{"error (%)", "batch 8 (samples/s)", "batch 16 (samples/s)"},
		Notes:   "paper: ~4-8% goodput loss at 20% error; large errors only shrink gains, never break correctness",
	}
	truth := profile.FromDist(m, dist, 8000, 1)
	measure := func(batch int, errFrac float64) float64 {
		cfg := optimizer.NewConfig(m, truth.WithError(errFrac), batch, mk(), slo)
		cfg.DisableInteriorRamps = true
		plan, err := optimizer.MaximizeGoodput(cfg)
		if err != nil {
			return 0
		}
		return system{kind: "pipeline", model: m, plan: plan}.maxGoodput(mk, dist, batch, slo, 221)
	}
	for _, e := range []float64{0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0} {
		t.Rows = append(t.Rows, []string{f0(e * 100), f0(measure(8, e)), f0(measure(16, e))})
	}
	return t
}

// Fig23 reproduces Figure 23: looser exit entropy (more tolerated error)
// exits more inputs and widens E3's lead.
func Fig23() Table {
	base := model.BERTBase()
	van := ee.NewVanilla(base)
	mk := func() *cluster.Cluster { return cluster.Homogeneous(gpu.V100, 16) }
	dist := mix80()

	t := Table{
		ID:      "fig23",
		Title:   "Impact of exit entropy (error tolerance), 16xV100, GLUE 80E/20H",
		Columns: []string{"entropy", "batch", "BERT-BASE", "DeeBERT", "E3", "E3/DeeBERT"},
		Notes:   "paper: at entropy 0.5, E3 up to 43% over DeeBERT; low entropy disables exits",
	}
	for _, th := range []float64{0.3, 0.4, 0.5} {
		dee := ee.NewDeeBERT(base, th)
		for _, b := range []int{1, 2, 4, 8} {
			gVan := system{kind: "dataparallel", model: van}.maxGoodput(mk, dist, b, defaultSLO, 231)
			gDee := system{kind: "dataparallel", model: dee}.maxGoodput(mk, dist, b, defaultSLO, 231)
			gE3 := e3Goodput(mk, dee, dist, b, defaultSLO, 231, nil)
			r := 0.0
			if gDee > 0 {
				r = gE3 / gDee
			}
			t.Rows = append(t.Rows, []string{f1(th), itoa(b), f0(gVan), f0(gDee), f0(gE3), f2(r)})
		}
	}
	return t
}
