package serving

import (
	"testing"

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

// Property: over a bursty open-loop trace, every minted sample must be
// accounted exactly once — completed or dropped with a classified reason,
// monotone timestamps, balanced per-stage flows — for all three runners.
func TestConservationAcrossRunners(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	dist := workload.Mix(0.8)
	mkClus := func() *cluster.Cluster { return cluster.Homogeneous(gpu.V100, 8) }

	prof := profile.FromDist(m, dist, 8000, 1)
	plan, err := optimizer.MaximizeGoodput(optimizer.NewConfig(m, prof, 8, mkClus(), 0.1))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		est  float64
		mk   func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error)
	}{
		{"pipeline", plan.Latency, func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error) {
			return scheduler.NewPipeline(eng, mkClus(), m, plan, coll)
		}},
		{"dataparallel", 0.030, func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error) {
			clus := mkClus()
			devs := make([]int, clus.Size())
			for i := range devs {
				devs[i] = i
			}
			return scheduler.NewDataParallel(eng, clus, m, devs, coll)
		}},
		{"serial", plan.Latency, func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error) {
			return scheduler.NewSerial(eng, mkClus(), m, plan, coll), nil
		}},
	}
	for _, seed := range []int64{7, 424242} {
		arr := trace.Bursty(trace.DefaultBursty(1500), 15, seed)
		if len(arr) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
		for _, tc := range cases {
			rep, _, c, err := AuditedOpenLoop(tc.mk, 12, arr, dist, tc.est, 0.1, 8, seed, scheduler.Observers{})
			if err != nil {
				t.Fatalf("%s/seed=%d: %v", tc.name, seed, err)
			}
			if rep.Samples != len(arr) {
				t.Errorf("%s/seed=%d: ledger tracked %d samples, trace has %d", tc.name, seed, rep.Samples, len(arr))
			}
			if err := rep.Err(); err != nil {
				t.Errorf("%s/seed=%d: %v\n%s", tc.name, seed, err, rep)
			}
			if total := c.Good.Served + c.Violations + c.Dropped; total != len(arr) {
				t.Errorf("%s/seed=%d: collector accounted %d of %d arrivals", tc.name, seed, total, len(arr))
			}
		}
	}
}
