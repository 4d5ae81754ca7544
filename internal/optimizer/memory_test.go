package optimizer

import (
	"testing"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/profile"
	"e3/internal/workload"
)

func TestSplitFitsBERTEverywhere(t *testing.T) {
	// BERT-BASE is ~0.4 GB of weights: fits every kind at any batch.
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	for _, k := range gpu.Kinds() {
		if !SplitFits(m, 1, 12, 64, k) {
			t.Errorf("BERT-BASE does not fit %s", k)
		}
	}
}

func TestSplitFitsLlamaMemoryWall(t *testing.T) {
	m := ee.NewLlamaEE(model.Llama318B())
	// The full 32-layer model (~14 GB fp16 + LM head) cannot fit a 12 GB
	// K80 but fits a 48 GB A6000.
	if SplitFits(m, 1, 32, 8, gpu.K80) {
		t.Error("full Llama reported as fitting a K80")
	}
	if !SplitFits(m, 1, 32, 8, gpu.A6000) {
		t.Error("full Llama does not fit an A6000")
	}
	// A quarter of the model fits even the K80 — splitting is how big
	// models reach small devices.
	if !SplitFits(m, 1, 8, 8, gpu.K80) {
		t.Error("an 8-layer Llama split should fit a K80")
	}
}

func TestPlannerRespectsMemory(t *testing.T) {
	// On a K80-only cluster, the planner must never produce a Llama split
	// that exceeds device memory; with MaxSplits 3 the 32 layers cannot be
	// carved small enough if exit mass is concentrated late — verify all
	// emitted splits fit.
	m := ee.NewLlamaEE(model.Llama318B())
	prof := profile.FromDist(m, workload.BoolQ(), 4000, 1)
	cfg := NewConfig(m, prof, 4, cluster.Homogeneous(gpu.K80, 24), 5)
	cfg.MaxSplits = 4
	plan, err := MaximizeGoodput(cfg)
	if err != nil {
		// Infeasible is acceptable; producing an over-memory plan is not.
		return
	}
	for _, s := range plan.Splits {
		if !SplitFits(m, s.From, s.To, plan.Batch, s.Kind) {
			t.Errorf("planner emitted over-memory split %+v", s)
		}
	}
}

func TestMemoryForcesSplitAcrossKinds(t *testing.T) {
	// Mixed cluster of K80s and A6000s: any split containing the whole
	// model must land on A6000; K80s may only host partial splits.
	m := ee.NewLlamaEE(model.Llama318B())
	prof := profile.FromDist(m, workload.BoolQ(), 4000, 1)
	clus := cluster.New(map[gpu.Kind]int{gpu.K80: 8, gpu.A6000: 4}, 2)
	plan, err := MaximizeGoodput(NewConfig(m, prof, 4, clus, 5))
	if err != nil {
		t.Fatalf("no feasible plan on mixed cluster: %v", err)
	}
	for _, s := range plan.Splits {
		if !SplitFits(m, s.From, s.To, plan.Batch, s.Kind) {
			t.Errorf("over-memory split: %+v", s)
		}
	}
}
