package serving

import (
	"e3/internal/audit"
	"e3/internal/flame"
	"e3/internal/optimizer"
	"e3/internal/scheduler"
	"e3/internal/sim"
	"e3/internal/trace"
	"e3/internal/workload"
)

// AuditedOpenLoop replays an arrival trace through a dynamic batcher with
// the lifecycle ledger and the given observers wired end to end
// (generator → batcher → runner → collector), then verifies conservation:
// every minted sample must be completed or dropped exactly once, with
// monotone timestamps and classified drop reasons. Each attached view's
// own reconcile (tracer counts against the ledger, attribution sums,
// flame busy/idle against the utilization ledger) folds into the same
// report. The runner is built by mk against the engine and a
// ledger-carrying collector. The ledger and the views run on the
// collector's stream consumer (scheduler.Collector.Observe) and are
// joined before it returns. It returns the verified report, the flame
// reconcile outcome (zero with no profiler), and the collector for
// further inspection.
func AuditedOpenLoop(mk func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error),
	layers int, arr trace.Arrivals, dist workload.Dist, estService, slo float64, batch int, seed int64,
	obs scheduler.Observers) (*audit.Report, flame.ReconcileStat, *scheduler.Collector, error) {
	eng := sim.NewEngine()
	coll := scheduler.NewCollector(layers, slo, 0)
	// The ledger and the views run on the collector's stream consumer;
	// Close joins it, and so does Stop on every early return.
	coll.Observe(obs)
	r, err := mk(eng, coll)
	if err != nil {
		coll.Stop()
		return nil, flame.ReconcileStat{}, nil, err
	}
	gen := workload.NewGenerator(dist, seed)
	gen.SetSink(coll)
	b := NewBatcher(eng, r, batch, estService, optimizer.DefaultSlackFrac)
	c, err := RunOpenLoopStream(eng, r, b, trace.NewSliceStream(arr), gen, slo)
	if err != nil {
		// A truncated run cannot be audited — conservation is trivially
		// violated when in-flight samples were abandoned mid-event-loop.
		coll.Stop()
		return nil, flame.ReconcileStat{}, c, err
	}
	rep, stat := c.Close(eng.Now())
	return rep, stat, c, nil
}
