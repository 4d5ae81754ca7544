package flame_test

// Property test: across seeds and runner architectures, the flame fold
// must account for every device's busy time exactly — the profiler's
// integer busy nanoseconds equal the utilization ledger's span sum per
// device, and the conservation identity busy − overlap − excess + bubble
// == horizon holds with zero residual. The runner cases mirror the
// conservation-audit experiment (pipeline, data-parallel baseline, serial
// ablation).

import (
	"testing"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/flame"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/trace"
	"e3/internal/workload"
)

const (
	propSLO     = 0.100
	propBatch   = 8
	propRate    = 2000.0
	propHorizon = 1.0
	propSeeds   = 20
)

func propPlan(t *testing.T, dee *ee.EEModel, dist workload.Dist) optimizer.Plan {
	t.Helper()
	clus := cluster.Homogeneous(gpu.V100, 8)
	prof := profile.FromDist(dee, dist, 8000, 1)
	plan, err := optimizer.MaximizeGoodput(optimizer.Config{
		Model: dee, Profile: prof, Batch: propBatch, Cluster: clus,
		SLO: propSLO, SlackFrac: 0.2, MinExitFrac: optimizer.DefaultMinExitFrac,
		Pipelining: true, ModelParallel: true,
	})
	if err != nil {
		t.Fatalf("planning failed: %v", err)
	}
	return plan
}

func TestFlameAccountsLedgerExactlyAcrossSeedsAndRunners(t *testing.T) {
	base := model.BERTBase()
	dee := ee.NewDeeBERT(base, 0.4)
	dist := workload.Mix(0.8)
	plan := propPlan(t, dee, dist)

	mk := func() *cluster.Cluster { return cluster.Homogeneous(gpu.V100, 8) }
	cases := []struct {
		name string
		est  float64
		mk   func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error)
	}{
		{"pipeline", plan.Latency, func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error) {
			return scheduler.NewPipeline(eng, mk(), dee, plan, coll)
		}},
		{"dataparallel", 0.030, func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error) {
			clus := mk()
			devs := make([]int, clus.Size())
			for i := range devs {
				devs[i] = i
			}
			return scheduler.NewDataParallel(eng, clus, dee, devs, coll)
		}},
		{"serial", plan.Latency, func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error) {
			return scheduler.NewSerial(eng, mk(), dee, plan, coll), nil
		}},
	}

	for _, rc := range cases {
		rc := rc
		t.Run(rc.name, func(t *testing.T) {
			for seed := int64(1); seed <= propSeeds; seed++ {
				arr := trace.Bursty(trace.DefaultBursty(propRate), propHorizon, seed)
				fl := flame.NewProfiler(0)
				rep, stat, _, err := serving.AuditedOpenLoop(rc.mk, base.NumLayers(), arr, dist,
					rc.est, propSLO, propBatch, seed, scheduler.Observers{Flame: fl})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				// Reconcile already folded flame disagreements into the audit
				// report; the report must stay clean.
				if err := rep.Err(); err != nil {
					t.Fatalf("seed %d: audit: %v", seed, err)
				}
				if !stat.Checked || stat.Devices == 0 {
					t.Fatalf("seed %d: flame reconcile did not run (devices=%d)", seed, stat.Devices)
				}
				if !stat.OK() {
					t.Fatalf("seed %d: flame busy/idle disagrees with ledger: residual %dns over %d devices",
						seed, stat.Residual, stat.Devices)
				}
				// The profile's own totals must satisfy the conservation
				// identity per device — 100.000%% accounted, exactly.
				pr := fl.Profile()
				for _, d := range pr.Devices {
					if got := d.BusyNanos - d.OverlapNanos - d.ExcessNanos + d.BubbleNanos; got != d.HorizonNanos {
						t.Fatalf("seed %d: device %s identity broken: busy-ovl-exc+bubble=%d != horizon=%d",
							seed, d.ID, got, d.HorizonNanos)
					}
				}
			}
		})
	}
}
