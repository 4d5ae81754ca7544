// Package replan drives E3's adaptation loop end to end on the sim clock:
// each scheduling window predicts the next exit profile (§3.1), re-runs
// the split/replicate planner when the forecast drifts from the plan's
// assumptions or a spike engages or releases the buffer GPUs (§3.2,
// §3.1), serves the window's arrivals under the active plan, then
// observes the window's measured profile back into the estimator. It is
// the system's one predict→plan→serve loop.
//
// One engine, one collector, one lifecycle ledger, and one span tracer
// persist across every window and plan switch, so the conservation audit
// and the telemetry reconciliation hold over the whole run — a replan may
// rebuild the pipeline, but it cannot lose or double-count a sample.
package replan

import (
	"fmt"

	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/flame"
	"e3/internal/forecast"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/slo"
	"e3/internal/telemetry"
	"e3/internal/trace"
	"e3/internal/workload"
)

// diffHistory bounds the plan-diff ring a run retains.
const diffHistory = 32

// eventLimit is the run's runaway backstop: far above any legitimate
// run, so hitting it means a scheduling loop. Tests lower it to abort a
// run mid-window.
var eventLimit uint64 = 200_000_000

// Spike-buffer thresholds (§3.1) on a window's bad fraction, the share of
// its outcomes that were violations or drops (1 − SLOAttainment): above
// overloadBadFrac the reserve engages, below recoverBadFrac it is released.
const (
	overloadBadFrac = 0.02
	recoverBadFrac  = 0.005
)

// Config is one windowed replan run.
type Config struct {
	Model   *ee.EEModel
	Cluster *cluster.Cluster
	// Batch is B0; SLO the end-to-end deadline (seconds).
	Batch int
	SLO   float64

	// Windows is W, the number of scheduling windows; WindowDur each
	// window's virtual duration (the paper uses 2 minutes; tests use
	// seconds).
	Windows   int
	WindowDur float64
	Seed      int64

	// DriftThreshold triggers a replan when the forecast profile's max
	// per-layer deviation from the active plan's assumed profile exceeds
	// it. Zero replans every window.
	DriftThreshold float64

	// Workload gives window w's difficulty mix and offered Poisson rate
	// (samples/s), modelling §5.4-style shifts and load spikes. Required.
	Workload func(w int) (mix workload.Dist, rate float64)

	// Initial, when set, is the offline profile window 0 plans from
	// (§3.1's bootstrap); otherwise window 0 plans from the estimator's
	// empty-history forecast, which assumes no exits.
	Initial profile.Batch

	// BufferGPUs holds this many devices back from steady-state plans
	// (§3.1's spike buffer resources). A window whose bad fraction exceeds
	// overloadBadFrac makes the next plans use the whole cluster; one under
	// recoverBadFrac returns them to the reserve. Either toggle forces a
	// replan.
	BufferGPUs int

	// Method selects the forecaster (ARIMA default, persistence baseline).
	Method forecast.Method

	// Observers optionally watch the whole run and reconcile into the
	// final audit report. The tracer also records replan instants on the
	// control-plane track; the flame profile is snapshotted at every
	// window boundary (plan switches show up as profile shifts across
	// Result.FlameWindows).
	scheduler.Observers

	// SLOTarget is the attainment target the error budget accrues
	// against; BurnThreshold is the window burn rate that counts as a
	// breach (each emits a control-plane instant and can trigger the
	// flight recorder). Out-of-range values take slo's defaults. Budget
	// accounting always runs — it is O(1) per window.
	SLOTarget     float64
	BurnThreshold float64

	// Recorder, when non-nil, is armed with the run's tracer, diff ring,
	// forecast stats, ledger, budget, and attribution, and triggers on
	// burn-rate breaches, audit violations, and engine aborts.
	Recorder *slo.Recorder
}

// WindowStat is one window's outcome.
type WindowStat struct {
	Window int     `json:"window"`
	Start  float64 `json:"start_s"`

	Served     int `json:"served"`
	Violations int `json:"violations"`
	Dropped    int `json:"dropped"`
	// Goodput is within-SLO completions per second of window time.
	Goodput float64 `json:"goodput"`
	// SLOAttainment is served / (served + violations + dropped); 1 when
	// the window had no outcomes.
	SLOAttainment float64 `json:"slo_attainment"`

	// ForecastMAE is the mean absolute per-layer error of this window's
	// forecast against its observed profile.
	ForecastMAE float64 `json:"forecast_mae"`
	// Drift is the forecast's max per-layer deviation from the active
	// plan's assumed profile at the window boundary.
	Drift float64 `json:"drift"`

	// GPUs is the active plan's device count; Buffers marks a window whose
	// plan may use the spike reserve.
	GPUs    int  `json:"gpus"`
	Buffers bool `json:"buffers"`

	Replanned   bool `json:"replanned"`
	PlanChanged bool `json:"plan_changed"`
	// PlanCacheHit marks a replan answered from the cross-window plan
	// cache instead of a fresh search.
	PlanCacheHit bool `json:"plan_cache_hit"`

	// Budget is the window's error-budget accounting (burn rate, budget
	// remaining, time-to-exhaustion, breach flag).
	Budget slo.WindowBudget `json:"budget"`
}

// Result is one run's outcome.
type Result struct {
	Windows []WindowStat
	// Diffs retains the most recent plan diffs (bounded); Replans counts
	// planner invocations, PlanChanges the ones whose plan differed.
	Diffs       *optimizer.DiffRing
	Replans     int
	PlanChanges int
	// PlanCacheHits counts replans served from the cross-window cache;
	// PlanCacheMisses counts the ones that ran a search.
	PlanCacheHits   int
	PlanCacheMisses int

	FinalPlan optimizer.Plan
	// Provenance is the last planner invocation's search trace.
	Provenance *optimizer.SearchTrace
	// Forecast is the estimator's accuracy telemetry over the whole run.
	Forecast *forecast.Stats
	// MeanForecastMAE is the rolling MAE gauge at end of run.
	MeanForecastMAE float64

	// Report is the conservation audit over the entire run, with the
	// tracer's counters reconciled in.
	Report *audit.Report

	// Budget is the run's error-budget tracker (never nil: budget
	// accounting always runs).
	Budget *slo.Budget

	// FlameWindows holds one cumulative profile snapshot per window (only
	// when a profiler was attached): FlameWindows[w] covers the run through
	// window w's end, so window w's own compute is the Diff of snapshots
	// w−1 and w. The snapshots are taken on the collector's stream
	// consumer, so they are complete only once Run returns. FlameStat is
	// the end-of-run exact-reconcile outcome.
	FlameWindows []*flame.Profile
	FlameStat    flame.ReconcileStat
}

// Run executes the windowed loop. The engine, collector, ledger, tracer,
// and batch pool span the whole run; each window plans, serves its
// arrivals on a fresh pipeline + batcher drained completely before the
// next boundary, and observes its outcome.
func Run(cfg Config) (*Result, error) {
	if cfg.Model == nil || cfg.Cluster == nil {
		return nil, fmt.Errorf("replan: nil model or cluster")
	}
	if cfg.Windows < 1 || cfg.WindowDur <= 0 {
		return nil, fmt.Errorf("replan: need at least one window of positive duration")
	}
	if cfg.Workload == nil {
		return nil, fmt.Errorf("replan: nil Workload")
	}
	l := newLoop(cfg)
	// Every return path joins the collector's stream consumer.
	defer l.coll.Stop()
	for w := 0; w < cfg.Windows; w++ {
		if err := l.plan(w); err != nil {
			return nil, err
		}
		if err := l.serve(w); err != nil {
			// The recorder's bundle is the black box the failed run leaves
			// behind; joining the stream's consumer first lets it see every
			// boundary recorded before the failure.
			wrapped := fmt.Errorf("replan: window %d: %w", w, err)
			l.coll.Stop()
			cfg.Recorder.Trigger(slo.TriggerEngineAbort, wrapped.Error(), l.eng.Now())
			return nil, wrapped
		}
		l.observe(w)
	}
	rep, flameStat := l.coll.Close(l.eng.Now())
	if !rep.OK() {
		cfg.Recorder.Trigger(slo.TriggerAuditViolation, rep.Violations[0], l.eng.Now())
	}
	res := l.res
	res.FlameWindows, res.FlameStat = l.coll.FlameWindows(), flameStat
	res.Report = rep
	res.FinalPlan = l.active
	res.MeanForecastMAE = l.est.Stats.MAE()
	res.PlanCacheHits, res.PlanCacheMisses = l.cache.Hits, l.cache.Misses
	return res, nil
}

// loop is one Run's state across its windows. pool is the run's one
// batch pool: every window's pipeline and batcher recycle batch slices
// through it.
type loop struct {
	cfg    Config
	eng    *sim.Engine
	coll   *scheduler.Collector
	gen    *workload.Generator
	pool   *workload.BatchPool
	est    *forecast.Estimator
	budget *slo.Budget

	// problem is the planning problem every window shares; plan fills in
	// the forecast, device pool and search trace. It carries one memoized
	// segment-cost table: the model, batch and interconnect never change
	// mid-run and the table does not depend on inventory, so every
	// window's search reuses it, spike reserve or not. cache is the
	// cross-window plan cache.
	problem optimizer.Config
	cache   *PlanCache

	// active is the plan being served, assumed the profile it was planned
	// for. reserved is the device pool steady-state plans use; buffers
	// marks the spike reserve engaged.
	active   optimizer.Plan
	assumed  profile.Batch
	havePlan bool
	reserved *cluster.Cluster
	buffers  bool

	// win is the open window's stat: plan starts it, observe appends it.
	win WindowStat
	res *Result
}

func newLoop(cfg Config) *loop {
	layers := cfg.Model.Base.NumLayers()
	mix0, _ := cfg.Workload(0)
	l := &loop{
		cfg: cfg, eng: sim.NewEngine(), coll: scheduler.NewCollector(layers, cfg.SLO, 0),
		gen: workload.NewGenerator(mix0, cfg.Seed), pool: workload.NewBatchPool(),
		est: forecast.NewEstimator(layers), budget: slo.NewBudget(cfg.SLOTarget, cfg.BurnThreshold),
		problem: optimizer.NewConfig(cfg.Model, profile.Batch{}, cfg.Batch, cfg.Cluster, cfg.SLO),
		cache:   NewPlanCache(DefaultPlanCacheSize, DefaultPlanCacheTolerance), reserved: cfg.Cluster,
	}
	l.problem.Costs = optimizer.NewCostTableFor(l.problem)
	l.eng.SetEventLimit(eventLimit)
	// The ledger and the views run on the collector's stream consumer, a
	// second goroutine; arrivals join the same ordered stream.
	l.coll.Observe(cfg.Observers)
	l.gen.SetSink(l.coll)
	l.est.Method = cfg.Method
	l.est.Stats = forecast.NewStats(layers)
	l.res = &Result{Diffs: optimizer.NewDiffRing(diffHistory), Forecast: l.est.Stats, Budget: l.budget}
	// Arm the flight recorder with every source this run owns; it
	// snapshots them all into one bundle when a trigger fires.
	if rec := cfg.Recorder; rec != nil {
		rec.Spans = cfg.Tracer
		rec.Diffs = l.res.Diffs
		rec.Forecast = l.est.Stats
		rec.Ledger = l.coll.Audit
		rec.Budget = l.budget
		rec.Attr = cfg.Attr
	}
	if cfg.BufferGPUs > 0 {
		l.reserved = cfg.Cluster.Subset(max(1, cfg.Cluster.Size()-cfg.BufferGPUs))
	}
	return l
}

// plan opens window w: it forecasts the window's profile and replans when
// the forecast has drifted from the active plan's assumptions, there is
// no plan yet, or the spike buffers engage or release. A replan reuses a
// cached plan for a matching problem, else searches. Only a failed search
// with no plan to fall back on is an error.
func (l *loop) plan(w int) error {
	l.win = WindowStat{Window: w, Start: l.eng.Now()}
	pred := l.est.Predict()
	if w == 0 && l.cfg.Initial.L > 0 {
		pred = l.cfg.Initial
	}
	reason := "initial plan"
	due := !l.havePlan
	if l.havePlan {
		l.win.Drift = pred.MaxAbsDiff(l.assumed)
		reason = fmt.Sprintf("forecast drift %.3f > %.3f", l.win.Drift, l.cfg.DriftThreshold)
		due = l.win.Drift > l.cfg.DriftThreshold
	}
	// Spike buffers: the last window's bad fraction engages or releases
	// the reserve, and either toggle replans.
	if l.cfg.BufferGPUs > 0 && w > 0 {
		bad := 1 - l.res.Windows[w-1].SLOAttainment
		if (!l.buffers && bad > overloadBadFrac) || (l.buffers && bad < recoverBadFrac) {
			l.buffers = !l.buffers
			reason, due = "spike buffers", true
		}
	}
	if !due {
		return nil
	}
	clus := l.reserved
	if l.buffers {
		clus = l.cfg.Cluster
	}
	tr := &optimizer.SearchTrace{}
	ocfg := l.problem
	ocfg.Profile, ocfg.Cluster, ocfg.Trace = pred, clus, tr
	// A hit reuses the winner of a quantization-identical problem without
	// searching. The reuse is still a replan: it pushes a diff and a
	// control-plane span, plus a plan-cache span marking the skipped
	// search.
	next, hit := l.cache.Lookup(ocfg)
	if !hit {
		var err error
		next, err = optimizer.MaximizeGoodput(ocfg)
		if err != nil && !l.havePlan {
			return fmt.Errorf("replan: window %d: %w", w, err)
		}
		l.res.Provenance = tr
		if err != nil {
			// Keep serving the old plan; the failed search still counts as
			// a replan and its provenance is retained.
			l.res.Replans++
			return nil
		}
		l.cache.Store(ocfg, next)
	}
	d := optimizer.DiffPlans(l.active, next)
	d.Window, d.At, d.Reason = w, l.win.Start, reason
	if hit {
		d.Reason += " [plan cache]"
	}
	l.res.Diffs.Push(d)
	l.res.Replans++
	if d.Changed {
		l.res.PlanChanges++
	}
	l.coll.Replan(w, l.win.Start)
	if hit {
		l.coll.PlanCacheHit(w, l.win.Start)
	}
	l.active, l.assumed, l.havePlan = next, pred, true
	l.win.Replanned, l.win.PlanChanged, l.win.PlanCacheHit = true, d.Changed, hit
	return nil
}

// serve runs window w's arrivals under the active plan on a fresh
// pipeline + batcher (the collector, ledger and tracer persist) and
// drains them. An error aborts the run.
func (l *loop) serve(w int) error {
	pipe, b, err := serving.Deploy(l.eng, l.cfg.Cluster, l.cfg.Model, l.active, l.coll, l.pool)
	if err != nil {
		return err
	}
	mix, rate := l.cfg.Workload(w)
	l.gen.SwitchDist(mix)
	// Poisson (not bursty) arrivals: each window must yield a usable
	// profile observation, and DefaultBursty's ~18 s idle gaps would
	// starve short windows to a few dozen samples of pure noise.
	st := trace.NewPoissonStream(rate, l.cfg.WindowDur, l.cfg.Seed+int64(w)*1000)
	stop := serving.FeedStream(l.eng, b, st, l.win.Start, l.gen, l.cfg.SLO)
	// Once the window is drained (or the run aborted), join the feed's
	// producer before the next window switches gen's mix.
	defer stop()
	return serving.Drain(l.eng, []*serving.Batcher{b}, pipe)
}

// observe closes window w: it feeds the measured profile to the
// estimator, tallies the window's outcomes into its stat and the error
// budget, and snapshots the flame profile.
func (l *loop) observe(w int) {
	l.est.Observe(l.coll.ObservedProfile())
	served, violations, dropped := l.coll.WindowCounts()
	ws := &l.win
	ws.Served, ws.Violations, ws.Dropped = served, violations, dropped
	ws.Goodput = float64(served) / l.cfg.WindowDur
	ws.ForecastMAE = l.est.Stats.LastMAE()
	ws.GPUs, ws.Buffers = l.active.GPUs, l.buffers
	// The error budget scores the window's attainment; a burn-rate breach
	// is a control-plane instant and a flight-recorder trigger.
	ws.Budget = l.budget.ObserveWindow(w, served, violations, dropped, l.cfg.WindowDur)
	ws.SLOAttainment = ws.Budget.Attainment
	if ws.Budget.Breached {
		l.coll.SLOBurn(w, l.eng.Now())
		if l.cfg.Recorder != nil {
			// The bundle reads the views: let the consumer catch up.
			l.coll.Sync()
		}
		l.cfg.Recorder.Trigger(slo.TriggerSLOBurn,
			fmt.Sprintf("window %d burn rate %.2f >= %.2f", w, ws.Budget.BurnRate, l.budget.BurnThreshold()),
			l.eng.Now())
	}
	l.res.Windows = append(l.res.Windows, *ws)
	// Snapshot the cumulative flame profile at the window boundary (a
	// record the consumer applies in order, not a wait); the fold is pure,
	// so this does not disturb the accumulator.
	l.coll.SnapshotFlame()
	l.coll.ResetWindow()
}

// DriftingDemo is the canonical drifting-mix configuration the bench and
// the verify gate run: BERT-Base/DeeBERT on 8 V100s with the workload's
// easy fraction drifting 0.9 → 0.3 across the run, which forces the
// planner to move its cut as exit mass migrates deeper.
func DriftingDemo(windows int, method forecast.Method, tr *telemetry.Tracer) Config {
	return Config{
		Model:          ee.NewDeeBERT(model.BERTBase(), 0.4),
		Cluster:        cluster.Homogeneous(gpu.V100, 8),
		Batch:          8,
		SLO:            0.100,
		Windows:        windows,
		WindowDur:      2.0,
		Seed:           424242,
		DriftThreshold: 0.05,
		Workload: func(w int) (workload.Dist, float64) {
			frac := 0.9
			if windows > 1 {
				frac = 0.9 - 0.6*float64(w)/float64(windows-1)
			}
			return workload.Mix(frac), 2000
		},
		Method:    method,
		Observers: scheduler.Observers{Tracer: tr},
	}
}
