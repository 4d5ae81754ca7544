package slo_test

// Property test: across seeds and runner architectures, every breakdown
// the attribution accepts must partition [arrival, completion] exactly,
// and its terminal counters must agree with the lifecycle ledger. The
// runner cases mirror the conservation-audit experiment (pipeline,
// data-parallel baseline, serial ablation).

import (
	"fmt"
	"math"
	"testing"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/slo"
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
	plan, err := optimizer.MaximizeGoodput(optimizer.NewConfig(dee, prof, propBatch, clus, propSLO))
	if err != nil {
		t.Fatalf("planning failed: %v", err)
	}
	return plan
}

func TestAttributionSumsAcrossSeedsAndRunners(t *testing.T) {
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
				attr := slo.NewAttribution(8)
				rep, _, _, err := serving.AuditedOpenLoop(rc.mk, base.NumLayers(), arr, dist,
					rc.est, propSLO, propBatch, seed, scheduler.Observers{Attr: attr})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				// Reconcile already folded attribution disagreements into the
				// report; a clean report plus zero mismatches is the property.
				if !rep.OK() {
					t.Fatalf("seed %d: audit/attribution reconcile failed: %v", seed, rep.Violations[0])
				}
				if attr.Mismatches() != 0 || attr.Open() != 0 {
					t.Fatalf("seed %d: mismatches=%d open=%d", seed, attr.Mismatches(), attr.Open())
				}
				completed, dropped, attributed := attr.Counts()
				if int(completed) != rep.Completed || int(dropped) != rep.Dropped {
					t.Fatalf("seed %d: attr counts %d/%d vs ledger %d/%d",
						seed, completed, dropped, rep.Completed, rep.Dropped)
				}
				if attributed != completed {
					t.Fatalf("seed %d: %d of %d completions attributed", seed, attributed, completed)
				}
				for _, bd := range attr.Slowest() {
					if resid := math.Abs(bd.Sum() - bd.E2E()); resid > slo.SumTolerance {
						t.Fatalf("seed %d: request %d residual %v: %s",
							seed, bd.ID, resid, breakdownString(bd))
					}
				}
			}
		})
	}
}

func breakdownString(bd slo.Breakdown) string {
	s := fmt.Sprintf("[%v..%v]", bd.Arrival, bd.Completion)
	for _, p := range bd.Parts {
		s += fmt.Sprintf(" %v@s%d[%v..%v]", p.Comp, p.Stage, p.Start, p.End)
	}
	return s
}
