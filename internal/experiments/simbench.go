package experiments

import (
	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/metrics"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/trace"
	"e3/internal/workload"
)

// SimBenchConfig parameterizes the data-plane throughput benchmark: a
// Poisson open-loop trace through the full serving stack (generator →
// batcher → pipeline runner → collector) with the sampled conservation
// ledger attached. The default is the paper-scale stress case — 9000 req/s
// for a virtual hour, ~32M arrivals — which the fast path must complete in
// seconds of wall time.
type SimBenchConfig struct {
	// Rate is the Poisson arrival rate (req/s); Horizon the trace length in
	// virtual seconds.
	Rate    float64
	Horizon float64
	Seed    int64
	// AuditStride audits every Nth request in per-event detail (population
	// totals stay exact for all); 1 = exhaustive.
	AuditStride int64
	// Pooled recycles batch slices through the batcher → runner path.
	// Pooled and unpooled runs are byte-identical in results.
	Pooled bool
	GPUs   int
	Batch  int
	// Plan optionally supplies a precomputed plan so harnesses can time
	// the data plane alone; nil plans fresh via the optimizer.
	Plan *optimizer.Plan
}

// PlanSimBench computes the plan a config would use, for callers that
// want planning outside their timed region.
func PlanSimBench(cfg SimBenchConfig) (optimizer.Plan, error) {
	base := model.BERTBase()
	dee := ee.NewDeeBERT(base, 0.4)
	return planE3(cluster.Homogeneous(gpu.V100, cfg.GPUs), dee, mix80(), cfg.Batch, defaultSLO, nil)
}

// DefaultSimBench is the paper-scale trace the -sim-bench harness and the
// simgate floor measure: 9000 req/s × 1 h on BERT-Base/DeeBERT over 8
// V100s, every 1000th request audited in detail.
func DefaultSimBench() SimBenchConfig {
	return SimBenchConfig{
		Rate: 9000, Horizon: 3600, Seed: 97,
		AuditStride: 1000, Pooled: true, GPUs: 8, Batch: 8,
	}
}

// SimBenchResult reports one benchmark run. Wall-clock timing is the
// caller's job (the simulator package is virtual-time only).
type SimBenchResult struct {
	// Requests is the exact arrival count (from the ledger's population
	// counters); Events the engine events processed.
	Requests int
	Events   uint64
	// Completed counts terminal completions (within or past SLO); Dropped
	// counts shed samples. Completed+Dropped == Requests when conservation
	// holds.
	Completed int
	Dropped   int
	// Goodput is served-within-SLO samples per virtual second.
	Goodput float64
	// AuditOK is the verified conservation report's verdict; Report holds
	// the full report for inspection.
	AuditOK bool
	Report  *audit.Report
	// Digest canonically serializes the ledger (totals + every tracked
	// sample's event sequence) — equal digests mean identical executions.
	Digest string
	// Latency is the completion-latency five-number summary, compared
	// verbatim in the pooled-vs-unpooled property test.
	Latency metrics.Summary
	// LatencyBytes is what the latency recorder retains at the run's end
	// (metrics.LatencyRecorder.RetainedBytes).
	LatencyBytes int
}

// RunSimBench executes one configured run. The same config always yields
// the same result (virtual time, seeded randomness, deterministic event
// order), so pooled vs unpooled toggles must produce equal digests.
func RunSimBench(cfg SimBenchConfig) (SimBenchResult, error) {
	base := model.BERTBase()
	dee := ee.NewDeeBERT(base, 0.4)
	dist := mix80()
	clus := cluster.Homogeneous(gpu.V100, cfg.GPUs)
	var plan optimizer.Plan
	if cfg.Plan != nil {
		plan = *cfg.Plan
	} else {
		var err error
		plan, err = planE3(clus, dee, dist, cfg.Batch, defaultSLO, nil)
		if err != nil {
			return SimBenchResult{}, err
		}
	}

	eng := sim.NewEngine()
	// Size the runaway backstop to the workload: a paper-scale hour needs
	// ~55M events, past the driver's 50M default. ~2 events/request
	// steady-state, with 8x headroom so a real scheduling loop still trips.
	eng.SetEventLimit(uint64(cfg.Rate*cfg.Horizon)*8 + 1_000_000)
	coll := scheduler.NewCollector(base.NumLayers(), defaultSLO, 0)
	coll.Audit = audit.NewSampledLedger(cfg.AuditStride)
	var pool *workload.BatchPool
	if cfg.Pooled {
		pool = workload.NewBatchPool()
	}
	pipe, b, err := serving.Deploy(eng, clus, dee, plan, coll, pool)
	if err != nil {
		return SimBenchResult{}, err
	}
	gen := workload.NewGenerator(dist, cfg.Seed)
	gen.SetSink(coll)

	st := trace.NewPoissonStream(cfg.Rate, cfg.Horizon, cfg.Seed)
	c, err := serving.RunOpenLoopStream(eng, pipe, b, st, gen, defaultSLO)
	if err != nil {
		return SimBenchResult{}, err
	}
	rep := c.AuditReport()
	return SimBenchResult{
		Requests:  rep.Samples,
		Events:    eng.Processed(),
		Completed: c.Good.Served + c.Violations,
		Dropped:   c.Dropped,
		Goodput:   c.Good.Goodput(),
		AuditOK:   rep.OK(),
		Report:    rep,
		Digest:    coll.Audit.Digest(),
		Latency:   c.Lat.Summarize(),

		LatencyBytes: c.Lat.RetainedBytes(),
	}, nil
}
