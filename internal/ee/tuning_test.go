package ee

import (
	"testing"

	"e3/internal/model"
	"e3/internal/workload"
)

func bertAcc() AccuracyModel {
	return AccuracyModel{BaseAccuracy: 92.7, ExitRisk: DefaultExitRisk}
}

func TestEarlyExitFraction(t *testing.T) {
	m := NewDeeBERT(model.BERTBase(), 0.4)
	// Constant trivially easy inputs: everyone exits early.
	if got := EarlyExitFraction(m, workload.Constant(0.05), 1000, 1); got != 1 {
		t.Errorf("easy exit fraction = %v, want 1", got)
	}
	// Constant maximally hard: nobody does.
	if got := EarlyExitFraction(m, workload.Constant(0.999), 1000, 1); got != 0 {
		t.Errorf("hard exit fraction = %v, want 0", got)
	}
}

func TestAccuracyEstimateMonotoneInThreshold(t *testing.T) {
	acc := bertAcc()
	dist := workload.SST2()
	prev := 100.0
	for _, th := range []float64{0.3, 0.4, 0.5} {
		m := NewDeeBERT(model.BERTBase(), th)
		a := acc.Estimate(m, dist, th, 8000, 2)
		if a > prev+1e-9 {
			t.Errorf("accuracy rose with looser threshold %v: %v after %v", th, a, prev)
		}
		if a > acc.BaseAccuracy {
			t.Errorf("EE accuracy %v above base %v", a, acc.BaseAccuracy)
		}
		prev = a
	}
}

func TestTuneEntropyHitsBudget(t *testing.T) {
	build := func(th float64) *EEModel { return NewDeeBERT(model.BERTBase(), th) }
	dist := workload.SST2()
	acc := bertAcc()

	// A generous budget should pick a loose threshold (lots of exits).
	loose, err := TuneEntropy(build, acc, dist, 89.0, 0.05, 0.95, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A strict budget picks a tight one.
	tight, err := TuneEntropy(build, acc, dist, 92.0, 0.05, 0.95, 3)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Threshold <= tight.Threshold {
		t.Errorf("generous budget threshold %v not looser than strict %v", loose.Threshold, tight.Threshold)
	}
	if loose.Accuracy < 89.0 || tight.Accuracy < 92.0 {
		t.Errorf("budgets violated: %v / %v", loose.Accuracy, tight.Accuracy)
	}
	// Looser threshold must buy earlier exits (more compute saving).
	if loose.MeanExitLayer >= tight.MeanExitLayer {
		t.Errorf("loose mean exit %v not earlier than tight %v", loose.MeanExitLayer, tight.MeanExitLayer)
	}
}

func TestTuneEntropyUnreachableBudget(t *testing.T) {
	build := func(th float64) *EEModel { return NewDeeBERT(model.BERTBase(), th) }
	if _, err := TuneEntropy(build, bertAcc(), workload.SST2(), 99.9, 0.05, 0.95, 4); err == nil {
		t.Error("unreachable budget accepted")
	}
}

func TestTuneEntropyBadBounds(t *testing.T) {
	build := func(th float64) *EEModel { return NewDeeBERT(model.BERTBase(), th) }
	for _, b := range [][2]float64{{0, 0.5}, {0.5, 1}, {0.6, 0.4}} {
		if _, err := TuneEntropy(build, bertAcc(), workload.SST2(), 90, b[0], b[1], 5); err == nil {
			t.Errorf("bounds %v accepted", b)
		}
	}
}
