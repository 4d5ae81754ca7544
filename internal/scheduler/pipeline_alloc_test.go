package scheduler

import (
	"testing"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/sim"
	"e3/internal/workload"
)

// TestPipelineWarmBatchAllocations: once warm, a pooled pipeline batch
// allocates nothing. Its grouped completion and survivor hand-off events
// are pooled jobs with callbacks bound once, and split execution scratch
// (the pad histogram, on-the-fly terms) lives on the stage and is reused.
func TestPipelineWarmBatchAllocations(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 2)
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	plan := optimizer.Plan{
		Splits: []optimizer.Split{
			{From: 1, To: 6, Kind: gpu.V100, Replicas: 1, StageTime: 0.010, CommTime: 0.001},
			{From: 7, To: 12, Kind: gpu.V100, Replicas: 1, StageTime: 0.010},
		},
		Batch:         4,
		CycleTime:     0.010,
		Pipelined:     true,
		ModelParallel: true,
	}
	eng := sim.NewEngine()
	p, err := NewPipeline(eng, clus, m, plan, NewCollector(12, 10, 0))
	if err != nil {
		t.Fatal(err)
	}
	pool := workload.NewBatchPool()
	p.SetPool(pool)

	// Two samples exit in split 1 and two cross into split 2, whose merge
	// queue flushes them as a partial batch: two executed batches, two
	// completion events, one survivor hand-off.
	diffs := []float64{0.1, 0.3, 0.8, 0.95}
	id := int64(0)
	batch := func() {
		b := pool.Get(len(diffs))
		for i, d := range diffs {
			id++
			b[i] = workload.Sample{ID: id, Difficulty: d, Arrival: eng.Now(), Deadline: eng.Now() + 100}
		}
		p.Ingest(b)
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		batch()
	}
	if got := testing.AllocsPerRun(200, batch); got != 0 {
		t.Errorf("warm pipeline batch: %v allocations, want 0", got)
	}
}
