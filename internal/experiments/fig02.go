package experiments

import (
	"math/rand"

	"e3/internal/ee"
	"e3/internal/exec"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/workload"
)

func init() { register("fig02", Fig02) }

// baseAccuracy holds Figure 2's published base accuracies (stock models
// and their distilled variants); early-exit penalties come from the ee
// package's accuracy model.
var baseAccuracy = map[string]map[string]float64{
	"SST-2": {"BERT": 92.7, "DistilBERT": 91.3},
	"QNLI":  {"BERT": 91.0, "DistilBERT": 89.2},
}

// eeAccuracy derates a base accuracy by the early-exit fraction.
func eeAccuracy(base float64, m *ee.EEModel, dist workload.Dist, threshold float64) float64 {
	acc := ee.AccuracyModel{BaseAccuracy: base, ExitRisk: ee.DefaultExitRisk}
	return acc.Estimate(m, dist, threshold, 20000, 42)
}

// meanLatencyBatch1 measures the eager batch-1 latency of a model.
func meanLatencyBatch1(m *ee.EEModel, dist workload.Dist, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	spec := gpu.Get(gpu.V100)
	total := 0.0
	const n = 2000
	for i := 0; i < n; i++ {
		batch := []workload.Sample{{Difficulty: dist.Sample(rng)}}
		total += exec.RunEager(m, batch, spec, 1).Duration
	}
	return total / n
}

// Fig02 reproduces Figure 2: early exits bring large latency savings with
// mild accuracy loss, on both stock BERT and distilled DistilBERT
// (batch 1; latency normalized to vanilla BERT).
func Fig02() Table {
	const threshold = 0.4
	bert := ee.NewVanilla(model.BERTBase())
	bertEE := ee.NewDeeBERT(model.BERTBase(), threshold)
	distil := ee.NewVanilla(model.DistilBERT())
	distilEE := ee.NewDistilBERTEE(model.DistilBERT(), threshold)

	t := Table{
		ID:      "fig02",
		Title:   "Early exits: accuracy vs normalized batch-1 latency (entropy 0.4)",
		Columns: []string{"dataset", "model", "accuracy (%)", "avg latency (% of BERT)"},
		Notes:   "paper: BERT-EE saves ~42.7% latency at ~1.7% accuracy cost; DistilBERT-EE saves ~10.5% vs DistilBERT",
	}
	for _, ds := range []struct {
		name string
		dist workload.Dist
	}{{"SST-2", workload.SST2()}, {"QNLI", workload.QNLI()}} {
		ref := meanLatencyBatch1(bert, ds.dist, 7)
		rows := []struct {
			label string
			m     *ee.EEModel
			acc   float64
		}{
			{"BERT", bert, baseAccuracy[ds.name]["BERT"]},
			{"BERT-EE", bertEE, eeAccuracy(baseAccuracy[ds.name]["BERT"], bertEE, ds.dist, threshold)},
			{"DistilBERT", distil, baseAccuracy[ds.name]["DistilBERT"]},
			{"DistilBERT-EE", distilEE, eeAccuracy(baseAccuracy[ds.name]["DistilBERT"], distilEE, ds.dist, threshold)},
		}
		for _, r := range rows {
			lat := meanLatencyBatch1(r.m, ds.dist, 7)
			t.Rows = append(t.Rows, []string{ds.name, r.label, f1(r.acc), f1(100 * lat / ref)})
		}
	}
	return t
}
