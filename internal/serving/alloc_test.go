package serving

import (
	"testing"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/scheduler"
	"e3/internal/sim"
	"e3/internal/workload"
)

// pooledStack is a batcher in front of a two-stage pipeline sharing one
// batch pool, the data plane every open-loop run drives.
type pooledStack struct {
	eng *sim.Engine
	b   *Batcher
	id  int64
}

// newPooledStack wires the stack by hand, or through Deploy when deploy
// is set; the plan's latency is the hand-wired batcher's estimate, so
// both stacks are configured alike.
func newPooledStack(t testing.TB, deploy bool) *pooledStack {
	plan := optimizer.Plan{
		Splits: []optimizer.Split{
			{From: 1, To: 6, Kind: gpu.V100, Replicas: 1, StageTime: 0.010, CommTime: 0.001},
			{From: 7, To: 12, Kind: gpu.V100, Replicas: 1, StageTime: 0.010},
		},
		Batch:         4,
		Latency:       0.02,
		CycleTime:     0.010,
		Pipelined:     true,
		ModelParallel: true,
	}
	eng := sim.NewEngine()
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	clus, coll, pool := cluster.Homogeneous(gpu.V100, 2), scheduler.NewCollector(12, 0.1, 0), workload.NewBatchPool()
	if deploy {
		_, b, err := Deploy(eng, clus, m, plan, coll, pool)
		if err != nil {
			t.Fatal(err)
		}
		return &pooledStack{eng: eng, b: b}
	}
	p, err := scheduler.NewPipeline(eng, clus, m, plan, coll)
	if err != nil {
		t.Fatal(err)
	}
	p.SetPool(pool)
	b := NewBatcher(eng, p, plan.Batch, 0.02, 0.2)
	b.SetPool(pool)
	return &pooledStack{eng: eng, b: b}
}

// arrive admits one sample with a 100 ms SLO at the current time.
func (s *pooledStack) arrive(difficulty float64) {
	s.id++
	now := s.eng.Now()
	s.b.Arrive(workload.Sample{ID: s.id, Difficulty: difficulty, Arrival: now, Deadline: now + 0.1})
}

// cycle is one arrival/dispatch/flush round: four arrivals fill a batch
// (the first arms the flush check, the fourth dispatches and cancels it),
// a fifth re-arms it for a new head, and the run drains with that check
// flushing the fifth as a partial batch under SLA pressure. Two samples
// exit in stage 1 and the rest cross to stage 2, so both completion and
// survivor hand-off events fire.
func (s *pooledStack) cycle() error {
	for _, d := range []float64{0.1, 0.3, 0.8, 0.95, 0.9} {
		s.arrive(d)
	}
	return s.eng.RunAll()
}

// TestWarmDataPlaneCycleAllocatesNothing: once warm, a batcher →
// pipeline arrival/dispatch/flush cycle allocates nothing. The flush
// check is one reusable engine timer, and completion and hand-off events
// are pooled jobs; before that, every arm of the flush check built a
// closure and every executed batch built two more. The stack Deploy
// builds passes too, so Deploy hands the pool to both halves.
func TestWarmDataPlaneCycleAllocatesNothing(t *testing.T) {
	for _, deploy := range []bool{false, true} {
		s := newPooledStack(t, deploy)
		for i := 0; i < 50; i++ {
			if err := s.cycle(); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(200, func() {
			if err := s.cycle(); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("deploy %v: warm arrival/dispatch/flush cycle: %v allocations, want 0", deploy, got)
		}
		if c := s.b.runner.Collector(); c.Dropped != 0 || c.Good.Served+c.Violations != int(s.id) {
			t.Errorf("deploy %v: cycle lost work: %d arrived, %d completed, %d dropped", deploy, s.id, c.Good.Served+c.Violations, c.Dropped)
		}
	}
}

// BenchmarkBatcherArmDispatch measures the batcher's arm/dispatch path
// on a warm pooled pipeline: per op, one cycle of five arrivals, one full
// and one flushed partial batch, run to drain.
func BenchmarkBatcherArmDispatch(b *testing.B) {
	s := newPooledStack(b, false)
	for i := 0; i < 50; i++ {
		if err := s.cycle(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.cycle(); err != nil {
			b.Fatal(err)
		}
	}
}
