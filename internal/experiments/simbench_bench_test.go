package experiments

import (
	"testing"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/telemetry"
	"e3/internal/trace"
)

// BenchmarkTracedRunnerPath measures the fully-instrumented serving path —
// exhaustive ledger plus ring tracer, the e3-serve boot configuration —
// over a two-virtual-second Poisson slice per iteration. Allocations here
// are dominated by the per-sample/per-span record path the fast-path work
// pools and caches.
func BenchmarkTracedRunnerPath(b *testing.B) {
	base := model.BERTBase()
	dee := ee.NewDeeBERT(base, 0.4)
	dist := mix80()
	mk := func() *cluster.Cluster { return cluster.Homogeneous(gpu.V100, 8) }
	plan, err := planE3(mk(), dee, dist, 8, defaultSLO, nil)
	if err != nil {
		b.Fatal(err)
	}
	arr := trace.Poisson(3000, 2, 7)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs := scheduler.Observers{Tracer: telemetry.NewRing(4096)}
		rep, _, _, err := serving.AuditedOpenLoop(func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error) {
			return scheduler.NewPipeline(eng, mk(), dee, plan, coll)
		}, base.NumLayers(), arr, dist, plan.Latency, defaultSLO, 8, 7, obs)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() {
			b.Fatalf("audit failed: %v", rep.Violations)
		}
	}
}
