package serving

import (
	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/flame"
	"e3/internal/optimizer"
	"e3/internal/scheduler"
	"e3/internal/sim"
	"e3/internal/slo"
	"e3/internal/telemetry"
	"e3/internal/trace"
	"e3/internal/workload"
)

// ProfiledOpenLoop replays an arrival trace through a dynamic batcher with
// the lifecycle ledger — and, when non-nil, the span tracer, the
// per-request attribution, and the virtual-time compute profiler — wired
// end to end (generator → batcher → runner → collector), then verifies
// conservation: every minted sample must be completed or dropped exactly
// once, with monotone timestamps and classified drop reasons, the
// tracer's event counts must reconcile with the ledger's totals, every
// attributed breakdown must sum to its request's end-to-end latency, and
// the flame fold must account for every device's busy and idle time
// exactly (all Reconcile hooks fold mismatches into the report). The
// runner is built by mk against the engine and a ledger-carrying
// collector. It returns the verified report and the collector for further
// inspection.
func ProfiledOpenLoop(mk func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error),
	layers int, arr trace.Arrivals, dist workload.Dist, estService, sloDeadline float64, batch int, seed int64,
	tr *telemetry.Tracer, attr *slo.Attribution, fl *flame.Profiler) (*audit.Report, *scheduler.Collector, error) {
	eng := sim.NewEngine()
	coll := scheduler.NewCollector(layers, sloDeadline, 0)
	coll.Audit = audit.NewLedger()
	coll.Trace = tr
	coll.Attr = attr
	coll.Flame = fl
	r, err := mk(eng, coll)
	if err != nil {
		return nil, nil, err
	}
	gen := workload.NewGenerator(dist, seed)
	gen.SetAudit(coll.Audit)
	gen.SetTrace(tr)
	b := NewBatcher(eng, r, batch, estService, 0.2)
	c, err := RunOpenLoopStream(eng, r, b, trace.NewSliceStream(arr), gen, sloDeadline)
	if err != nil {
		// A truncated run cannot be audited — conservation is trivially
		// violated when in-flight samples were abandoned mid-event-loop.
		return nil, c, err
	}
	fl.CloseAt(eng.Now())
	rep := c.AuditReport()
	tr.Reconcile(rep)
	attr.Reconcile(rep)
	fl.Reconcile(rep, c.Util)
	return rep, c, nil
}

// ObservedOpenLoop is ProfiledOpenLoop without compute profiling.
func ObservedOpenLoop(mk func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error),
	layers int, arr trace.Arrivals, dist workload.Dist, estService, sloDeadline float64, batch int, seed int64,
	tr *telemetry.Tracer, attr *slo.Attribution) (*audit.Report, *scheduler.Collector, error) {
	return ProfiledOpenLoop(mk, layers, arr, dist, estService, sloDeadline, batch, seed, tr, attr, nil)
}

// TracedOpenLoop is ObservedOpenLoop without per-request attribution.
func TracedOpenLoop(mk func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error),
	layers int, arr trace.Arrivals, dist workload.Dist, estService, slo float64, batch int, seed int64,
	tr *telemetry.Tracer) (*audit.Report, *scheduler.Collector, error) {
	return ObservedOpenLoop(mk, layers, arr, dist, estService, slo, batch, seed, tr, nil)
}

// AuditedOpenLoop is TracedOpenLoop without telemetry.
func AuditedOpenLoop(mk func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error),
	layers int, arr trace.Arrivals, dist workload.Dist, estService, slo float64, batch int, seed int64) (*audit.Report, *scheduler.Collector, error) {
	return TracedOpenLoop(mk, layers, arr, dist, estService, slo, batch, seed, nil)
}

// ObservedPlan runs a bursty open-loop conservation audit of an E3 plan
// on the given cluster with the span tracer and per-request attribution
// attached — the self-check and telemetry warm-up e3-serve performs at
// boot before exposing the plan over HTTP. The tracer (commonly a ring)
// ends up holding the run's spans and histograms for the live /metrics
// and /v1/trace endpoints; the attribution ends up holding the run's
// critical-path breakdowns.
func ObservedPlan(clus *cluster.Cluster, m *ee.EEModel, plan optimizer.Plan, dist workload.Dist,
	avgRate, horizon, sloDeadline float64, seed int64,
	tr *telemetry.Tracer, attr *slo.Attribution) (*audit.Report, *scheduler.Collector, error) {
	return ProfiledPlan(clus, m, plan, dist, avgRate, horizon, sloDeadline, seed, tr, attr, nil)
}

// ProfiledPlan is ObservedPlan with the virtual-time compute profiler
// attached as well: the profiler ends up holding the boot run's compute
// profile for the live /v1/flame endpoint, reconciled exactly against the
// run's utilization ledger.
func ProfiledPlan(clus *cluster.Cluster, m *ee.EEModel, plan optimizer.Plan, dist workload.Dist,
	avgRate, horizon, sloDeadline float64, seed int64,
	tr *telemetry.Tracer, attr *slo.Attribution, fl *flame.Profiler) (*audit.Report, *scheduler.Collector, error) {
	arr := trace.Bursty(trace.DefaultBursty(avgRate), horizon, seed)
	return ProfiledOpenLoop(func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error) {
		return scheduler.NewPipeline(eng, clus, m, plan, coll)
	}, m.Base.NumLayers(), arr, dist, plan.Latency, sloDeadline, plan.Batch, seed, tr, attr, fl)
}

// TracedPlan is ObservedPlan without per-request attribution.
func TracedPlan(clus *cluster.Cluster, m *ee.EEModel, plan optimizer.Plan, dist workload.Dist,
	avgRate, horizon, slo float64, seed int64, tr *telemetry.Tracer) (*audit.Report, *scheduler.Collector, error) {
	return ObservedPlan(clus, m, plan, dist, avgRate, horizon, slo, seed, tr, nil)
}

// AuditPlan is TracedPlan without telemetry, returning only the report.
func AuditPlan(clus *cluster.Cluster, m *ee.EEModel, plan optimizer.Plan, dist workload.Dist,
	avgRate, horizon, slo float64, seed int64) (*audit.Report, error) {
	rep, _, err := TracedPlan(clus, m, plan, dist, avgRate, horizon, slo, seed, nil)
	return rep, err
}
