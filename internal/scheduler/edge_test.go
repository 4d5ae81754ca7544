package scheduler

import (
	"testing"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/sim"
	"e3/internal/workload"
)

func TestPipelinePartialBatchFlushes(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 8)
	plan, m := testPlan(t, clus, 8, 0.8)
	if len(plan.Splits) < 2 {
		t.Skip("single-split plan")
	}
	eng := sim.NewEngine()
	coll := NewCollector(12, 10, 0)
	p, err := NewPipeline(eng, clus, m, plan, coll)
	if err != nil {
		t.Fatal(err)
	}
	// One lone batch whose survivors can never fill a downstream batch:
	// the age-based flush must still push them through without FlushAll.
	gen := workload.NewGenerator(workload.Constant(0.95), 31) // all survive past early splits
	p.Ingest(gen.Batch(3, 0, 10))
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := coll.Good.Served; got != 3 {
		t.Fatalf("served %d of 3 without FlushAll — partial-batch flush broken", got)
	}
}

func TestPipelineSheddingDropsStaleWork(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 8)
	plan, m := testPlan(t, clus, 8, 0.8)
	eng := sim.NewEngine()
	coll := NewCollector(12, 0.1, 0)
	p, err := NewPipeline(eng, clus, m, plan, coll)
	if err != nil {
		t.Fatal(err)
	}
	// Samples whose deadline is already unreachable: the dispatcher sheds
	// them instead of computing them late.
	stale := make([]workload.Sample, 8)
	for i := range stale {
		stale[i] = workload.Sample{ID: int64(i + 1), Difficulty: 0.9, Arrival: 0, Deadline: 0.001}
	}
	p.Ingest(stale)
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if coll.Dropped != 8 {
		t.Errorf("dropped %d of 8 stale samples", coll.Dropped)
	}
	if coll.Good.Served != 0 {
		t.Errorf("served %d stale samples", coll.Good.Served)
	}
}

func TestPipelineFailOpenRecoversExclusions(t *testing.T) {
	// If every instance of a stage gets struck out (a bad baseline, not a
	// real straggler), dispatch must reset the exclusions rather than
	// funnel all work through one device.
	clus := cluster.Homogeneous(gpu.V100, 8)
	plan, m := testPlan(t, clus, 8, 0.8)
	eng := sim.NewEngine()
	coll := NewCollector(12, 10, 0)
	p, err := NewPipeline(eng, clus, m, plan, coll)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range p.stages[0].instances {
		inst.excluded = true
		inst.strikes = 2
	}
	gen := workload.NewGenerator(workload.Mix(0.8), 32)
	p.Ingest(gen.Batch(8, 0, 10))
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	p.FlushAll()
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if p.ExcludedInstances() >= len(p.stages[0].instances) {
		t.Error("fail-open did not clear exclusions")
	}
	if got := coll.Good.Served + coll.Violations; got != 8 {
		t.Errorf("served+violated = %d of 8 under total exclusion", got)
	}
}

func TestSerialFlushPartialRound(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 8)
	plan, m := testPlan(t, clus, 8, 0.8)
	eng := sim.NewEngine()
	coll := NewCollector(12, 10, 0)
	s := NewSerial(eng, clus, m, plan, coll)
	gen := workload.NewGenerator(workload.Mix(0.8), 33)
	// Fewer batches than devices: only FlushAll starts the round.
	for i := 0; i < 3; i++ {
		s.Ingest(gen.Batch(8, 0, 10))
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if coll.Good.Served != 0 {
		t.Fatalf("round started before FlushAll with %d/%d batches", 3, clus.Size())
	}
	s.FlushAll()
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := coll.Good.Served + coll.Violations; got != 24 {
		t.Errorf("served+violated = %d of 24 after FlushAll", got)
	}
}

func TestSerialBackToBackRounds(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 4)
	plan, m := testPlan(t, clus, 8, 0.8)
	eng := sim.NewEngine()
	coll := NewCollector(12, 10, 0)
	s := NewSerial(eng, clus, m, plan, coll)
	gen := workload.NewGenerator(workload.Mix(0.8), 34)
	// Two full rounds plus a remainder.
	for i := 0; i < 9; i++ {
		s.Ingest(gen.Batch(8, 0, 10))
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	s.FlushAll()
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := coll.Good.Served + coll.Violations; got != 72 {
		t.Errorf("served+violated = %d of 72 across rounds", got)
	}
}

func TestDataParallelBacklogDelay(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 2)
	m := ee.NewVanilla(model.BERTBase())
	eng := sim.NewEngine()
	coll := NewCollector(12, 10, 0)
	d, err := NewDataParallel(eng, clus, m, []int{0, 1}, coll)
	if err != nil {
		t.Fatal(err)
	}
	if d.BacklogDelay() != 0 {
		t.Error("fresh runner reports backlog")
	}
	gen := workload.NewGenerator(workload.Mix(0.8), 35)
	for i := 0; i < 20; i++ {
		d.Ingest(gen.Batch(8, 0, 10))
	}
	// Run a couple of events so the EWMA seeds, then check mid-backlog.
	eng.Step()
	if d.QueueDepth() == 0 {
		t.Skip("queue drained unexpectedly fast")
	}
	if d.BacklogDelay() <= 0 {
		t.Error("backlogged runner reports zero delay")
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
}
