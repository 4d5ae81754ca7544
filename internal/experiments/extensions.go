package experiments

// Extension experiments: features the paper flags as future work, built
// and measured here — real-time ramp tuning (§3.4), spike-buffer resources
// (§3.1), and the synergy question with Orca-style iterative scheduling
// (§5.1.3's deferral).

import (
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/llm"
	"e3/internal/model"
	"e3/internal/profile"
	"e3/internal/replan"
	"e3/internal/workload"
)

func init() {
	register("extension-tuning", ExtensionTuning)
	register("extension-continuous", ExtensionContinuous)
	register("extension-buffers", ExtensionBuffers)
}

// ExtensionTuning demonstrates accuracy-budgeted ramp tuning: given an
// accuracy floor, pick the loosest entropy threshold and report the
// goodput it buys (§3.4 future work).
func ExtensionTuning() Table {
	dist := workload.SST2()
	acc := ee.AccuracyModel{BaseAccuracy: 92.7, ExitRisk: ee.DefaultExitRisk}
	build := func(th float64) *ee.EEModel { return ee.NewDeeBERT(model.BERTBase(), th) }
	mk := func() *cluster.Cluster { return cluster.Homogeneous(gpu.V100, 16) }

	t := Table{
		ID:      "extension-tuning",
		Title:   "Accuracy-budgeted ramp tuning (SST-2, batch 8, 16xV100)",
		Columns: []string{"accuracy floor (%)", "tuned entropy", "est accuracy (%)", "mean exit layer", "E3 goodput"},
		Notes:   "extension of §3.4: the loosest threshold within budget maximizes exits and goodput",
	}
	for _, floor := range []float64{92.0, 91.5, 91.0, 90.0} {
		res, err := ee.TuneEntropy(build, acc, dist, floor, 0.05, 0.95, 11)
		if err != nil {
			t.Rows = append(t.Rows, []string{f1(floor), "-", "-", "-", "-"})
			continue
		}
		g := e3Goodput(mk, res.Model, dist, 8, defaultSLO, 271, nil)
		t.Rows = append(t.Rows, []string{
			f1(floor), f3(res.Threshold), f2(res.Accuracy), f1(res.MeanExitLayer), f0(g),
		})
	}
	return t
}

// ExtensionContinuous measures Orca-style iterative scheduling against
// static batching and E3: continuous batching removes *cross-iteration*
// padding waste, but the EE batch-shrinking problem remains *within* an
// iteration — exactly the paper's argument for why E3 is orthogonal.
func ExtensionContinuous() Table {
	spec := gpu.Get(gpu.A6000)
	lengths := llm.UniformLen{Min: 6, Max: 30}
	dist := workload.WMT()
	const (
		slots = 16
		nGPU  = 4
		nReqs = 384
	)
	avgLen := lengths.Mean()

	t5 := ee.NewVanilla(model.T5Decoder(avgLen))
	calm := ee.NewCALM(model.T5Decoder(avgLen), 0.25)

	gT5Static := llm.GoodputStatic(t5, lengths, dist, slots, nGPU, spec, 24, 281)
	gT5Cont := llm.GoodputContinuous(t5, lengths, dist, slots, nGPU, nReqs, spec, 281)
	gCALMCont := llm.GoodputContinuous(calm, lengths, dist, slots, nGPU, nReqs, spec, 281)

	slo := 0.100 * avgLen / 4
	gE3 := e3Goodput(func() *cluster.Cluster { return cluster.Homogeneous(gpu.A6000, nGPU) },
		calm, dist, slots, slo, 281, nil) / avgLen

	t := Table{
		ID:      "extension-continuous",
		Title:   "Iterative scheduling (Orca-style) vs E3 (T5 translation, batch 16, 4xA6000)",
		Columns: []string{"system", "req/s", "vs T5-static"},
		Notes:   "continuous batching fixes cross-iteration waste; within-iteration EE shrinkage still needs E3's splits",
	}
	add := func(name string, g float64) {
		r := 0.0
		if gT5Static > 0 {
			r = g / gT5Static
		}
		t.Rows = append(t.Rows, []string{name, f1(g), f2(r)})
	}
	add("T5 static", gT5Static)
	add("T5 + continuous", gT5Cont)
	add("CALM + continuous", gCALMCont)
	add("E3 token pipeline", gE3)
	return t
}

// ExtensionBuffers exercises the §3.1 spike-buffer mechanism end to end
// on the replan loop: six 2 s windows (steady, spike, four steady), where
// the spike beyond the reserved plan's capacity engages the reserved GPUs
// at the next window and a clean window releases them. Each row is a
// phase's offered load and the plan the loop chose after it.
func ExtensionBuffers() Table {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	clus := cluster.Homogeneous(gpu.V100, 16)
	t := Table{
		ID:      "extension-buffers",
		Title:   "Spike buffer resources (4 of 16 V100s reserved)",
		Columns: []string{"phase", "offered (req/s)", "plan GPUs", "buffers active"},
		Notes:   "extension of §3.1: overload engages the reserve at the next window, recovery releases it",
	}
	steady, err := planE3(clus.Subset(12), m, workload.Mix(0.8), 8, defaultSLO, nil)
	if err != nil {
		return t
	}
	rates := []float64{0.7, 1.9, 0.7, 0.7, 0.7, 0.7}
	for w := range rates {
		rates[w] *= steady.Goodput
	}
	res, err := replan.Run(replan.Config{
		Model: m, Cluster: clus, Batch: 8, SLO: defaultSLO,
		Windows: len(rates), WindowDur: 2, Seed: 291,
		Workload:   func(w int) (workload.Dist, float64) { return workload.Mix(0.8), rates[w] },
		Initial:    profile.Offline(m, workload.Mix(0.8)),
		BufferGPUs: 4,
	})
	if err != nil {
		t.Notes += " [ABORTED: " + err.Error() + "]"
		return t
	}
	// The steady phase is window 0, the spike window 1, and recovery
	// windows 2–4; window 5 runs the plan recovery left behind.
	for _, row := range []struct {
		phase string
		w     int
	}{{"steady", 0}, {"spike", 1}, {"recovered", 4}} {
		next := res.Windows[row.w+1]
		t.Rows = append(t.Rows, []string{row.phase, f0(rates[row.w]), itoa(next.GPUs), boolStr(next.Buffers)})
	}
	return t
}

func boolStr(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
