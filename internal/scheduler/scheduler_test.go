package scheduler

import (
	"math"
	"testing"

	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/sim"
	"e3/internal/workload"
)

func testPlan(t *testing.T, clus *cluster.Cluster, batch int, easyFrac float64) (optimizer.Plan, *ee.EEModel) {
	t.Helper()
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	prof := profile.FromDist(m, workload.Mix(easyFrac), 8000, 1)
	p, err := optimizer.MaximizeGoodput(optimizer.NewConfig(m, prof, batch, clus, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

// feed ingests n full batches at the given interval and runs to completion.
func feed(t *testing.T, eng *sim.Engine, r Runner, gen *workload.Generator, batch, n int, interval, slo float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		at := float64(i) * interval
		eng.At(at, func() {
			r.Ingest(gen.Batch(batch, eng.Now(), slo))
		})
	}
	eng.SetEventLimit(5_000_000)
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineServesEverySample(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 8)
	plan, m := testPlan(t, clus, 8, 0.8)
	eng := sim.NewEngine()
	coll := NewCollector(12, 0.1, 0)
	coll.Audit = audit.NewLedger()
	p, err := NewPipeline(eng, clus, m, plan, coll)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Mix(0.8), 7)
	gen.SetSink(coll)
	const batches = 50
	feed(t, eng, p, gen, 8, batches, plan.CycleTime/float64(len(plan.Splits)), 10 /* loose SLO */)
	p.FlushAll()
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	got := coll.Good.Served + coll.Violations
	if got != batches*8 {
		t.Fatalf("served+violated = %d, want %d (no sample may vanish)", got, batches*8)
	}
	if coll.Lat.Count() != batches*8 {
		t.Fatalf("latency samples = %d, want %d", coll.Lat.Count(), batches*8)
	}
	if p.PendingMerge() != 0 {
		t.Errorf("merge queues not drained: %d", p.PendingMerge())
	}
	if err := coll.AuditReport().Err(); err != nil {
		t.Error(err)
	}
}

func TestPipelineThroughputNearPlan(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 16)
	plan, m := testPlan(t, clus, 8, 0.8)
	eng := sim.NewEngine()
	coll := NewCollector(12, 10, 0)
	p, err := NewPipeline(eng, clus, m, plan, coll)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Mix(0.8), 8)
	// Offer at the planned rate for a sustained period.
	interval := 8.0 / plan.Goodput
	feed(t, eng, p, gen, 8, 3000, interval, 10)
	p.FlushAll()
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	got := coll.Good.Goodput()
	if got < plan.Goodput*0.7 {
		t.Errorf("achieved %v samples/s, plan predicted %v (want ≥ 70%%)", got, plan.Goodput)
	}
}

func TestPipelineEarlySamplesFinishFaster(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 8)
	plan, m := testPlan(t, clus, 8, 0.8)
	if len(plan.Splits) < 2 {
		t.Skip("plan has one split; nothing to compare")
	}
	eng := sim.NewEngine()
	coll := NewCollector(12, 10, 0)
	p, err := NewPipeline(eng, clus, m, plan, coll)
	if err != nil {
		t.Fatal(err)
	}
	// Half trivially easy, half maximally hard: easy must beat hard on
	// median latency because they never cross the boundary.
	mix := workload.Mixture{
		Components: []workload.Dist{workload.Constant(0.05), workload.Constant(0.99)},
		Weights:    []float64{1, 1},
	}
	gen := workload.NewGenerator(mix, 9)
	feed(t, eng, p, gen, 8, 200, plan.CycleTime, 10)
	p.FlushAll()
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	// Reconstruct per-class latency from the exit histogram via quantiles:
	// easy exit early → the 25th percentile must sit well under the 75th.
	s := coll.Lat.Summarize()
	if s.P25 >= s.P75*0.8 {
		t.Errorf("latency quartiles too close (p25=%v p75=%v); early exits not reflected", s.P25, s.P75)
	}
}

func TestPipelineObservedProfileMatchesWorkload(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 8)
	plan, m := testPlan(t, clus, 8, 0.5)
	eng := sim.NewEngine()
	coll := NewCollector(12, 10, 0)
	p, err := NewPipeline(eng, clus, m, plan, coll)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Mix(0.5), 10)
	feed(t, eng, p, gen, 8, 1000, plan.CycleTime, 10)
	p.FlushAll()
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := profile.FromDist(m, workload.Mix(0.5), 20000, 11)
	got := coll.ObservedProfile()
	// The pipeline observes exits only at split boundaries and the end,
	// so compare survival at the boundaries.
	for _, sp := range plan.Splits[:len(plan.Splits)-1] {
		w := want.After(sp.To)
		g := got.After(sp.To)
		if math.Abs(w-g) > 0.05 {
			t.Errorf("boundary %d survival: observed %v, workload %v", sp.To, g, w)
		}
	}
}

func TestPipelineStragglerExclusion(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 8)
	plan, m := testPlan(t, clus, 8, 0.8)
	// Make one replica of the first split pathologically slow.
	firstKindDevs := clus.OfKind(plan.Splits[0].Kind)
	clus.MarkStraggler(firstKindDevs[0], 4.0)
	eng := sim.NewEngine()
	coll := NewCollector(12, 10, 0)
	p, err := NewPipeline(eng, clus, m, plan, coll)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Mix(0.8), 12)
	feed(t, eng, p, gen, 8, 200, plan.CycleTime, 10)
	p.FlushAll()
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if p.ExcludedInstances() == 0 {
		t.Error("straggler never excluded")
	}
	if got := coll.Good.Served + coll.Violations; got != 200*8 {
		t.Errorf("samples lost under straggler: %d of %d", got, 200*8)
	}
}

func TestPipelineInsufficientDevices(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 16)
	plan, m := testPlan(t, clus, 8, 0.8)
	tiny := cluster.Homogeneous(gpu.V100, 1)
	eng := sim.NewEngine()
	if _, err := NewPipeline(eng, tiny, m, plan, NewCollector(12, 0.1, 0)); err == nil && plan.GPUs > 1 {
		t.Error("plan bound to a cluster that cannot host it")
	}
}

func TestDataParallelVanilla(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 4)
	m := ee.NewVanilla(model.BERTBase())
	eng := sim.NewEngine()
	coll := NewCollector(12, 10, 0)
	coll.Audit = audit.NewLedger()
	devs := []int{0, 1, 2, 3}
	d, err := NewDataParallel(eng, clus, m, devs, coll)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Mix(0.8), 13)
	gen.SetSink(coll)
	feed(t, eng, d, gen, 8, 100, 0.004, 10)
	if got := coll.Good.Served; got != 800 {
		t.Errorf("vanilla served %d, want 800", got)
	}
	if err := coll.AuditReport().Err(); err != nil {
		t.Error(err)
	}
	// All latencies identical shape: every sample runs the full model, so
	// min latency ≥ full-model time.
	full := 0.0
	spec := gpu.Get(gpu.V100)
	for _, l := range m.Base.Layers {
		full += spec.LayerTime(l.FLOPs, 8)
	}
	if coll.Lat.Quantile(0) < full {
		t.Errorf("min latency %v below full-model compute %v", coll.Lat.Quantile(0), full)
	}
}

func TestDataParallelEEFasterAtBatch1(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 2)
	eng := sim.NewEngine()
	run := func(m *ee.EEModel) float64 {
		coll := NewCollector(12, 10, eng.Now())
		d, err := NewDataParallel(eng, clus, m, []int{0, 1}, coll)
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewGenerator(workload.Mix(0.8), 14)
		start := eng.Now()
		for i := 0; i < 400; i++ {
			d.Ingest(gen.Batch(1, start, 10))
		}
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		return eng.Now() - start
	}
	tEE := run(ee.NewDeeBERT(model.BERTBase(), 0.4))
	tV := run(ee.NewVanilla(model.BERTBase()))
	if tEE >= tV {
		t.Errorf("EE batch-1 makespan %v not below vanilla %v", tEE, tV)
	}
}

func TestDataParallelValidation(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 2)
	m := ee.NewVanilla(model.BERTBase())
	eng := sim.NewEngine()
	if _, err := NewDataParallel(eng, clus, m, nil, NewCollector(12, 1, 0)); err == nil {
		t.Error("no devices accepted")
	}
	if _, err := NewDataParallel(eng, clus, m, []int{5}, NewCollector(12, 1, 0)); err == nil {
		t.Error("out-of-range device accepted")
	}
}

func TestSerialSlowerThanPipeline(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 8)
	plan, m := testPlan(t, clus, 8, 0.8)
	if len(plan.Splits) < 2 {
		t.Skip("single-split plan")
	}
	const batches = 400
	makespan := func(r Runner, flush func()) float64 {
		eng := sim.NewEngine()
		switch v := r.(type) {
		case *Pipeline:
			v.eng = eng
		case *Serial:
			v.eng = eng
		}
		gen := workload.NewGenerator(workload.Mix(0.8), 15)
		gen.SetSink(r.Collector())
		for i := 0; i < batches; i++ {
			r.Ingest(gen.Batch(8, 0, 10))
		}
		flush()
		eng.SetEventLimit(5_000_000)
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}
	engP := sim.NewEngine()
	collP := NewCollector(12, 10, 0)
	pipe, err := NewPipeline(engP, clus, m, plan, collP)
	if err != nil {
		t.Fatal(err)
	}
	tPipe := makespan(pipe, pipe.FlushAll)

	engS := sim.NewEngine()
	collS := NewCollector(12, 10, 0)
	collS.Audit = audit.NewLedger()
	ser := NewSerial(engS, clus, m, plan, collS)
	tSer := makespan(ser, ser.FlushAll)

	if tPipe >= tSer {
		t.Errorf("pipeline makespan %v not below serial %v (Fig 26 shape)", tPipe, tSer)
	}
	if got := collS.Good.Served + collS.Violations; got != batches*8 {
		t.Errorf("serial lost samples: %d of %d", got, batches*8)
	}
	if err := collS.AuditReport().Err(); err != nil {
		t.Error(err)
	}
}

func TestCollectorObservedProfile(t *testing.T) {
	c := NewCollector(4, 1, 0)
	// 2 exit at layer 2, 2 at layer 4.
	c.Complete(workload.Sample{Deadline: 10}, 1, 2)
	c.Complete(workload.Sample{Deadline: 10}, 1, 2)
	c.Complete(workload.Sample{Deadline: 10}, 1, 4)
	c.Complete(workload.Sample{Deadline: 10}, 1, 4)
	p := c.ObservedProfile()
	if p.At(1) != 1 || p.At(2) != 1 {
		t.Errorf("survival entering 1,2 = %v,%v, want 1,1", p.At(1), p.At(2))
	}
	if p.At(3) != 0.5 || p.At(4) != 0.5 {
		t.Errorf("survival entering 3,4 = %v,%v, want 0.5,0.5", p.At(3), p.At(4))
	}
	c.ResetWindow()
	q := c.ObservedProfile()
	if q.At(3) != 1 {
		t.Errorf("after reset, survival = %v, want all-survive", q.At(3))
	}
}

func TestCollectorSLOAccounting(t *testing.T) {
	c := NewCollector(4, 0.1, 0)
	c.Complete(workload.Sample{Arrival: 0, Deadline: 0.1}, 0.05, 4) // ok
	c.Complete(workload.Sample{Arrival: 0, Deadline: 0.1}, 0.50, 4) // violation
	c.Drop(workload.Sample{}, 0.5, audit.ReasonAdmission)
	if c.Good.Served != 1 || c.Violations != 1 || c.Dropped != 1 {
		t.Errorf("served=%d violations=%d dropped=%d", c.Good.Served, c.Violations, c.Dropped)
	}
}
