package experiments

import (
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
)

func init() {
	register("fig24", Fig24)
	register("fig25", Fig25)
	register("fig26", Fig26)
}

// Fig24 reproduces Figure 24: SLOs determine the feasible batch size —
// strict SLOs mean tiny batches (where EE shines), loose ones enable
// large batches (where E3's batch restoration dominates).
func Fig24() Table {
	base := model.BERTBase()
	van := ee.NewVanilla(base)
	dee := ee.NewDeeBERT(base, 0.4)
	dist := mix80()
	mk := func() *cluster.Cluster { return cluster.Homogeneous(gpu.V100, 16) }

	t := Table{
		ID:      "fig24",
		Title:   "Impact of SLO: max batch per SLO, goodput per system (16xV100)",
		Columns: []string{"SLO (ms)", "batch", "BERT-BASE", "DeeBERT", "E3"},
		Notes:   "paper: E3 within 1% of DeeBERT at batch 1, up to 63%/34% over DeeBERT/BERT as batching grows",
	}
	cases := []struct {
		slo   float64
		batch int
	}{
		{0.025, 1}, {0.050, 2}, {0.075, 4}, {0.100, 8},
		{0.200, 16}, {0.500, 32}, {1.000, 64},
	}
	for _, c := range cases {
		gVan := system{kind: "dataparallel", model: van}.maxGoodput(mk, dist, c.batch, c.slo, 241)
		gDee := system{kind: "dataparallel", model: dee}.maxGoodput(mk, dist, c.batch, c.slo, 241)
		gE3 := e3Goodput(mk, dee, dist, c.batch, c.slo, 241, nil)
		t.Rows = append(t.Rows, []string{f0(c.slo * 1e3), itoa(c.batch), f0(gVan), f0(gDee), f0(gE3)})
	}
	return t
}

// Fig25 reproduces Figure 25: granting E3 the §3.4 exit-wrapper — it
// disables exits inside a split (except the last) — avoids exit-head
// kernels and boosts goodput.
func Fig25() Table {
	base := model.BERTBase()
	dee := ee.NewDeeBERT(base, 0.4)
	dist := mix80()
	mk := func() *cluster.Cluster { return cluster.Homogeneous(gpu.V100, 16) }

	t := Table{
		ID:      "fig25",
		Title:   "Exit-wrapper (ramp disabling) goodput improvement",
		Columns: []string{"batch", "E3 (samples/s)", "E3+wrapper (samples/s)", "improvement (%)"},
		Notes:   "paper: 7-16% improvement, growing with batch size",
	}
	for _, b := range []int{1, 2, 4, 8} {
		gBase := e3Goodput(mk, dee, dist, b, defaultSLO, 251, nil)
		gWrap := e3Goodput(mk, dee, dist, b, defaultSLO, 251, func(cfg *optimizer.Config) {
			cfg.DisableInteriorRamps = true
		})
		imp := 0.0
		if gBase > 0 {
			imp = 100 * (gWrap/gBase - 1)
		}
		t.Rows = append(t.Rows, []string{itoa(b), f0(gBase), f0(gWrap), f1(imp)})
	}
	return t
}

// Fig26 reproduces Figure 26: the model-parallelism ablation. With MP off,
// split phases run globally with barriers; utilization collapses as
// survivors shrink.
func Fig26() Table {
	base := model.BERTBase()
	van := ee.NewVanilla(base)
	dee := ee.NewDeeBERT(base, 0.4)
	dist := mix80()
	mk := func() *cluster.Cluster { return cluster.Homogeneous(gpu.V100, 16) }

	t := Table{
		ID:      "fig26",
		Title:   "Model parallelism ablation (16xV100, GLUE 80E/20H)",
		Columns: []string{"batch", "BERT-BASE", "DeeBERT", "E3 MP-off", "E3 MP-on", "on/off"},
		Notes:   "paper: parallel split execution significantly outperforms serialized execution",
	}
	for _, b := range []int{2, 4, 8} {
		gVan := system{kind: "dataparallel", model: van}.maxGoodput(mk, dist, b, defaultSLO, 261)
		gDee := system{kind: "dataparallel", model: dee}.maxGoodput(mk, dist, b, defaultSLO, 261)
		gOn := e3Goodput(mk, dee, dist, b, defaultSLO, 261, nil)
		gOff := 0.0
		if planOn, err := planE3(mk(), dee, dist, b, defaultSLO, nil); err == nil {
			gOff = system{kind: "serial", model: dee, plan: planOn}.maxGoodput(mk, dist, b, defaultSLO, 261)
		}
		r := 0.0
		if gOff > 0 {
			r = gOn / gOff
		}
		t.Rows = append(t.Rows, []string{itoa(b), f0(gVan), f0(gDee), f0(gOff), f0(gOn), f2(r)})
	}
	return t
}
