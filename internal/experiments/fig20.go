package experiments

import (
	"time"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/forecast"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/workload"
)

func init() {
	register("fig20", Fig20)
	register("fig21", Fig21)
}

// Fig20 reproduces Figure 20's table: the optimizer is lightweight — it
// finds splits and placements in seconds even for the 46-GPU
// heterogeneous cluster.
func Fig20() Table {
	t := Table{
		ID:      "fig20",
		Title:   "Optimizer runtime (wall-clock seconds)",
		Columns: []string{"model", "homogeneous (ms)", "heterogeneous (ms)"},
		Notes:   "paper: 0.87-1.53s homogeneous, 2.09-3.63s heterogeneous (their testbed CPU)",
	}
	cases := []struct {
		label string
		mk    func() *ee.EEModel
	}{
		{"ResNet50", func() *ee.EEModel { return ee.NewBranchyNet(model.ResNet50()) }},
		{"BERT-BASE", func() *ee.EEModel { return ee.NewDeeBERT(model.BERTBase(), 0.4) }},
		{"BERT-LARGE", func() *ee.EEModel { return ee.NewDeeBERT(model.BERTLarge(), 0.4) }},
	}
	hom := cluster.Homogeneous("V100", 16)
	het := cluster.PaperEvaluation()
	for _, c := range cases {
		m := c.mk()
		prof := profile.Offline(m, mix80())
		timeIt := func(clus *cluster.Cluster) float64 {
			cfg := optimizer.NewConfig(m, prof, 8, clus, 0.25)
			cfg.MaxSplits = 4
			// Figure 20 measures the optimizer's real compute cost, not
			// simulated behaviour, so the wall clock is the instrument here.
			start := time.Now() //e3:wallclock measuring actual optimizer runtime
			// Repeat to get a stable reading; report the per-solve time.
			const reps = 20
			for i := 0; i < reps; i++ {
				_, _ = optimizer.MaximizeGoodput(cfg)
			}
			return time.Since(start).Seconds() / reps //e3:wallclock measuring actual optimizer runtime
		}
		t.Rows = append(t.Rows, []string{c.label, f2(timeIt(hom) * 1e3), f2(timeIt(het) * 1e3)})
	}
	return t
}

// windowSamples is how many synthetic inputs measure one scheduling
// window's profile in Fig21 and the forecaster ablation.
const windowSamples = 12000

// Fig21 reproduces Figure 21: the online batch-profile estimator's
// predictions versus reality at two model cuts over ten scheduling
// windows, under a drifting workload.
func Fig21() Table {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	const inputBatch = 8
	cut1, cut2 := 4, 8

	t := Table{
		ID:    "fig21",
		Title: "Batch-profile estimation: predicted vs actual batch size at two cuts (input batch 8)",
		Columns: []string{"window", "cut1 predicted", "cut1 actual",
			"cut2 predicted", "cut2 actual"},
		Notes: "paper: predictions closely match reality",
	}
	est := forecast.NewEstimator(m.Base.NumLayers())
	// Warm up on a drifting easy fraction, then report ten windows. Each
	// window's profile is measured on synthetic traffic and observed.
	easyAt := func(w int) float64 { return 0.75 - 0.02*float64(w%12) }
	for w := 0; w < 8; w++ {
		est.Observe(profile.FromDist(m, workload.Mix(easyAt(w)), windowSamples, int64(210+w)))
	}
	for w := 0; w < 10; w++ {
		pred := est.Predict()
		actual := profile.FromDist(m, workload.Mix(easyAt(8+w)), windowSamples, int64(218+w))
		est.Observe(actual)
		t.Rows = append(t.Rows, []string{
			itoa(w + 1),
			f2(pred.At(cut1+1) * inputBatch), f2(actual.At(cut1+1) * inputBatch),
			f2(pred.At(cut2+1) * inputBatch), f2(actual.At(cut2+1) * inputBatch),
		})
	}
	return t
}
