package serving

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
	"e3/internal/scheduler"
	"e3/internal/sim"
	"e3/internal/trace"
	"e3/internal/workload"
)

func pipelineSetup(t *testing.T, nGPU, batch int) (*sim.Engine, *scheduler.Pipeline, optimizer.Plan, *ee.EEModel) {
	t.Helper()
	clus := cluster.Homogeneous(gpu.V100, nGPU)
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	prof := profile.FromDist(m, workload.Mix(0.8), 8000, 1)
	plan, err := optimizer.MaximizeGoodput(optimizer.NewConfig(m, prof, batch, clus, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	coll := scheduler.NewCollector(12, 0.1, 0)
	p, err := scheduler.NewPipeline(eng, clus, m, plan, coll)
	if err != nil {
		t.Fatal(err)
	}
	return eng, p, plan, m
}

func TestBatcherDispatchesFullBatch(t *testing.T) {
	eng, p, plan, _ := pipelineSetup(t, 8, 8)
	b := NewBatcher(eng, p, 8, plan.Latency, 0.2)
	gen := workload.NewGenerator(workload.Mix(0.8), 1)
	for i := 0; i < 8; i++ {
		b.Arrive(gen.Next(0, 0.1))
	}
	if b.QueueLen() != 0 {
		t.Errorf("queue = %d after a full batch, want dispatched", b.QueueLen())
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := p.Collector().Good.Served; got != 8 {
		t.Errorf("served = %d, want 8", got)
	}
}

func TestBatcherFlushesUnderSLAPressure(t *testing.T) {
	eng, p, plan, _ := pipelineSetup(t, 8, 8)
	b := NewBatcher(eng, p, 8, plan.Latency, 0.2)
	gen := workload.NewGenerator(workload.Mix(0.8), 2)
	// Only 3 arrivals: never fills the batch; the SLA flush must fire.
	for i := 0; i < 3; i++ {
		b.Arrive(gen.Next(0, 0.1))
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	c := p.Collector()
	if got := c.Good.Served + c.Violations; got != 3 {
		t.Errorf("served+violated = %d, want 3 (partial batch must flush)", got)
	}
	if c.Good.Served != 3 {
		t.Errorf("served = %d of 3 within SLO; flush fired too late", c.Good.Served)
	}
}

func TestBatcherDropsHopelessArrivals(t *testing.T) {
	eng, p, _, _ := pipelineSetup(t, 8, 8)
	// Estimated service far above SLO: everything is hopeless on arrival.
	b := NewBatcher(eng, p, 8, 10.0, 0.2)
	gen := workload.NewGenerator(workload.Mix(0.8), 3)
	for i := 0; i < 5; i++ {
		b.Arrive(gen.Next(0, 0.1))
	}
	if got := p.Collector().Dropped; got != 5 {
		t.Errorf("dropped = %d, want 5", got)
	}
}

func TestRunClosedLoopServesOfferedLoad(t *testing.T) {
	eng, p, plan, _ := pipelineSetup(t, 16, 8)
	gen := workload.NewGenerator(workload.Mix(0.8), 4)
	rate := plan.Goodput * 0.7
	c, _ := RunClosedLoop(eng, p, gen, 8, rate, 5, 0.1)
	total := c.Good.Served + c.Violations + c.Dropped
	if total == 0 {
		t.Fatal("nothing offered")
	}
	badFrac := float64(c.Violations+c.Dropped) / float64(total)
	if badFrac > 0.02 {
		t.Errorf("at 70%% of planned rate, bad fraction = %v, want ≤ 2%%", badFrac)
	}
	if g := c.Good.Goodput(); math.Abs(g-rate)/rate > 0.1 {
		t.Errorf("goodput %v, want ≈ offered %v", g, rate)
	}
}

func TestRunClosedLoopOverload(t *testing.T) {
	eng, p, plan, _ := pipelineSetup(t, 8, 8)
	gen := workload.NewGenerator(workload.Mix(0.8), 5)
	// 3x the plan: violations/drops must appear.
	c, _ := RunClosedLoop(eng, p, gen, 8, plan.Goodput*3, 3, 0.1)
	if c.Violations+c.Dropped == 0 {
		t.Error("overload produced no violations")
	}
}

func TestMaxGoodputFindsSustainableRate(t *testing.T) {
	var plan optimizer.Plan
	build := func() (*sim.Engine, scheduler.Runner) {
		clus := cluster.Homogeneous(gpu.V100, 8)
		m := ee.NewDeeBERT(model.BERTBase(), 0.4)
		prof := profile.FromDist(m, workload.Mix(0.8), 8000, 1)
		var err error
		plan, err = optimizer.MaximizeGoodput(optimizer.NewConfig(m, prof, 8, clus, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine()
		coll := scheduler.NewCollector(12, 0.1, 0)
		p, err := scheduler.NewPipeline(eng, clus, m, plan, coll)
		if err != nil {
			t.Fatal(err)
		}
		return eng, p
	}
	gen := func() *workload.Generator { return workload.NewGenerator(workload.Mix(0.8), 6) }
	got, err := MaxGoodput(build, gen, 8, 0.1, 4, 20000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 {
		t.Fatal("no sustainable rate found")
	}
	// Achieved should be within a factor of the planner's estimate.
	if got < plan.Goodput*0.5 || got > plan.Goodput*1.5 {
		t.Errorf("measured max goodput %v vs planned %v — outside 0.5–1.5x band", got, plan.Goodput)
	}
}

// instantRunner completes every sample of a batch the moment it arrives,
// except that a lossy one silently forgets each batch's last sample.
type instantRunner struct {
	eng   *sim.Engine
	coll  *scheduler.Collector
	lossy bool
}

func (r *instantRunner) Ingest(b []workload.Sample) {
	if r.lossy {
		b = b[:len(b)-1]
	}
	for _, s := range b {
		r.coll.Complete(s, r.eng.Now(), 12)
	}
}
func (r *instantRunner) Collector() *scheduler.Collector { return r.coll }

// TestMaxGoodputChecksConservation: every probe that runs to completion
// must account for each sample it scheduled. A runner that loses one
// sample per batch still looks perfectly healthy to the feasibility test
// (zero violations, zero drops), so only the conservation check catches it.
func TestMaxGoodputChecksConservation(t *testing.T) {
	for _, lossy := range []bool{false, true} {
		build := func() (*sim.Engine, scheduler.Runner) {
			eng := sim.NewEngine()
			return eng, &instantRunner{eng: eng, coll: scheduler.NewCollector(12, 0.1, 0), lossy: lossy}
		}
		gen := func() *workload.Generator { return workload.NewGenerator(workload.Mix(0.8), 6) }
		got, err := MaxGoodput(build, gen, 8, 0.1, 1, 2000, 0.01)
		switch {
		case lossy && err == nil:
			t.Errorf("runner losing a sample per batch passed every probe (goodput %.0f)", got)
		case !lossy && err != nil:
			t.Errorf("conserving runner failed the check: %v", err)
		case !lossy && got <= 0:
			t.Errorf("conserving runner sustained no rate")
		}
	}
}

func TestRunOpenLoopBursty(t *testing.T) {
	eng, p, plan, _ := pipelineSetup(t, 16, 8)
	p.Collector().Audit = audit.NewLedger()
	b := NewBatcher(eng, p, 8, plan.Latency, 0.2)
	arr := trace.Bursty(trace.DefaultBursty(800), 20, 7)
	gen := workload.NewGenerator(workload.Mix(0.8), 7)
	gen.SetSink(p.Collector())
	c, _ := RunOpenLoopStream(eng, p, b, trace.NewSliceStream(arr), gen, 0.1)
	total := c.Good.Served + c.Violations + c.Dropped
	if total != len(arr) {
		t.Fatalf("accounted %d of %d arrivals", total, len(arr))
	}
	if err := c.AuditReport().Err(); err != nil {
		t.Error(err)
	}
	if c.Good.Served == 0 {
		t.Fatal("bursty run served nothing")
	}
	// Bursty trace at modest average: utilization must be low (Fig 19).
	if u := c.Util.Utilization(eng.Now()); u > 0.5 {
		t.Errorf("utilization %v under bursty trace, expected < 0.5", u)
	}
}
