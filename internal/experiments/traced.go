package experiments

import (
	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/flame"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/trace"
)

// The demo setting is the audit experiment's (BERT-Base DeeBERT, V100×8,
// bursty open loop), so the exported timeline shows the same run the
// conservation audit verifies: its batch size, mean arrival rate, horizon
// in virtual seconds and seed. Report envelopes and flame artifacts that
// describe demo runs read them too.
const (
	DemoBatch   int     = 8
	DemoAvgRate float64 = 2000
	DemoHorizon float64 = 10
	DemoSeed    int64   = 424242
)

// demoModel is the demo setting's early-exit model.
func demoModel() *ee.EEModel { return ee.NewDeeBERT(model.BERTBase(), 0.4) }

// demoCluster is the demo setting's cluster, fresh per run.
func demoCluster() *cluster.Cluster { return cluster.Homogeneous(gpu.V100, 8) }

// planDemo plans E3 for the demo setting.
func planDemo(dee *ee.EEModel) (optimizer.Plan, error) {
	return planE3(demoCluster(), dee, mix80(), DemoBatch, defaultSLO, nil)
}

// RunDemo plans the demo setting and replays horizon virtual seconds of
// its bursty arrivals through the named runner — "pipeline" (E3),
// "dataparallel" (the baselines' eager runner) or "serial" (the §5.8.7
// phase-synchronized ablation) — with the given observers attached end to
// end (Observers{} measures the unobserved baseline). The returned report
// has every attached view reconciled against the ledger; the flame stat is
// the profiler's exact busy/idle reconcile (zero with no profiler).
func RunDemo(runner string, obs scheduler.Observers, horizon float64) (*audit.Report, flame.ReconcileStat, *scheduler.Collector, optimizer.Plan, error) {
	dee := demoModel()
	plan, err := planDemo(dee)
	if err != nil {
		return nil, flame.ReconcileStat{}, nil, optimizer.Plan{}, err
	}
	rep, stat, coll, err := runDemo(runner, dee, plan, obs, horizon)
	return rep, stat, coll, plan, err
}

// runDemo replays the demo workload through the named runner under an
// already computed plan.
func runDemo(runner string, dee *ee.EEModel, plan optimizer.Plan, obs scheduler.Observers, horizon float64) (*audit.Report, flame.ReconcileStat, *scheduler.Collector, error) {
	s := system{kind: runner, model: dee, plan: plan}
	mk := func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error) {
		return s.build(eng, demoCluster(), coll)
	}
	arr := trace.Bursty(trace.DefaultBursty(DemoAvgRate), horizon, DemoSeed)
	return serving.AuditedOpenLoop(mk, dee.Base.NumLayers(), arr, mix80(), s.est(), defaultSLO, DemoBatch, DemoSeed, obs)
}
