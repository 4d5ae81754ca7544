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

	// PlannerWorkers forwards to optimizer.Config.Workers; zero takes the
	// planner's default.
	PlannerWorkers int
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
// and batch pool span the whole run; each window builds a fresh pipeline +
// batcher for the active plan and drains it completely before the next
// boundary.
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
	layers := cfg.Model.Base.NumLayers()

	eng := sim.NewEngine()
	eng.SetEventLimit(eventLimit)
	coll := scheduler.NewCollector(layers, cfg.SLO, 0)
	coll.Audit = audit.NewLedger()
	coll.Observers = cfg.Observers
	// The ledger and the views run on the collector's stream consumer, a
	// second goroutine; arrivals join the same ordered stream. Every
	// return path joins the consumer.
	coll.Stream()
	defer coll.Stop()
	mix0, _ := cfg.Workload(0)
	gen := workload.NewGenerator(mix0, cfg.Seed)
	gen.SetSink(coll)
	// One batch pool for the whole run: it belongs to this event loop, and
	// every window's pipeline and batcher recycle batch slices through it.
	pool := workload.NewBatchPool()

	est := forecast.NewEstimator(layers)
	est.Method = cfg.Method
	est.Stats = forecast.NewStats(layers)

	budget := slo.NewBudget(cfg.SLOTarget, cfg.BurnThreshold)
	res := &Result{Diffs: optimizer.NewDiffRing(diffHistory), Forecast: est.Stats, Budget: budget}
	// Arm the flight recorder with every source this run owns; it
	// snapshots them all into one bundle when a trigger fires.
	if rec := cfg.Recorder; rec != nil {
		rec.Spans = cfg.Tracer
		rec.Diffs = res.Diffs
		rec.Forecast = est.Stats
		rec.Ledger = coll.Audit
		rec.Budget = budget
		rec.Attr = cfg.Attr
	}
	// abort triggers the recorder on an engine failure before bubbling the
	// error: the bundle is the black box the failed run leaves behind. It
	// joins the stream's consumer first, so the bundle sees every boundary
	// recorded before the failure.
	abort := func(w int, err error) error {
		wrapped := fmt.Errorf("replan: window %d: %w", w, err)
		coll.Stop()
		cfg.Recorder.Trigger(slo.TriggerEngineAbort, wrapped.Error(), eng.Now())
		return wrapped
	}
	var plan optimizer.Plan
	var planProfile profile.Batch
	havePlan := false
	// reserved is the device pool steady-state plans use; buffers marks
	// the spike reserve engaged.
	reserved := cfg.Cluster
	if cfg.BufferGPUs > 0 {
		reserved = cfg.Cluster.Subset(max(1, cfg.Cluster.Size()-cfg.BufferGPUs))
	}
	buffers := false
	prevServed, prevViolations, prevDropped := 0, 0, 0

	// Shared planner state across every window: the planning problem the
	// optimizer sees for window w's forecast, one memoized segment-cost
	// table (the model, batch and interconnect never change mid-run and
	// the table does not depend on inventory, so every window's search
	// reuses it, spike reserve or not), and the cross-window plan cache.
	planConfig := func(pred profile.Batch, clus *cluster.Cluster, tr *optimizer.SearchTrace) optimizer.Config {
		return optimizer.Config{
			Model: cfg.Model, Profile: pred, Batch: cfg.Batch, Cluster: clus,
			SLO: cfg.SLO, SlackFrac: 0.2, MinExitFrac: optimizer.DefaultMinExitFrac,
			Workers:    cfg.PlannerWorkers,
			Pipelining: true, ModelParallel: true,
			Trace: tr,
		}
	}
	costs := optimizer.NewCostTableFor(planConfig(profile.Batch{}, cfg.Cluster, nil))
	cache := NewPlanCache(DefaultPlanCacheSize, DefaultPlanCacheTolerance)

	for w := 0; w < cfg.Windows; w++ {
		start := eng.Now()
		pred := est.Predict()
		if w == 0 && cfg.Initial.L > 0 {
			pred = cfg.Initial
		}

		// Replan when the forecast has drifted from the active plan's
		// assumptions (or there is no plan yet).
		drift := 0.0
		reason := "initial plan"
		due := !havePlan
		if havePlan {
			drift = pred.MaxAbsDiff(planProfile)
			reason = fmt.Sprintf("forecast drift %.3f > %.3f", drift, cfg.DriftThreshold)
			due = drift > cfg.DriftThreshold
		}
		// Spike buffers: the last window's bad fraction engages or
		// releases the reserve, and either toggle replans.
		if cfg.BufferGPUs > 0 && w > 0 {
			bad := 1 - res.Windows[w-1].SLOAttainment
			if (!buffers && bad > overloadBadFrac) || (buffers && bad < recoverBadFrac) {
				buffers = !buffers
				reason, due = "spike buffers", true
			}
		}
		planClus := reserved
		if buffers {
			planClus = cfg.Cluster
		}
		replanned := false
		changed := false
		cacheHit := false
		if due {
			tr := &optimizer.SearchTrace{}
			ocfg := planConfig(pred, planClus, tr)
			ocfg.Costs = costs
			if cached, ok := cache.Lookup(ocfg); ok {
				// The cache already solved a quantization-identical
				// problem; reuse its winner without searching. The reuse is
				// still a replan: it pushes a diff and a control-plane span,
				// plus a plan-cache span marking the skipped search.
				d := optimizer.DiffPlans(plan, cached)
				d.Window, d.At = w, start
				d.Reason = reason + " [plan cache]"
				res.Diffs.Push(d)
				res.Replans++
				replanned, cacheHit = true, true
				changed = d.Changed
				if d.Changed {
					res.PlanChanges++
				}
				coll.Replan(w, start)
				coll.PlanCacheHit(w, start)
				plan, planProfile, havePlan = cached, pred, true
			} else if next, err := optimizer.MaximizeGoodput(ocfg); err != nil {
				if !havePlan {
					return nil, fmt.Errorf("replan: window %d: %w", w, err)
				}
				// Keep serving the old plan; the failed search still counts
				// as a replan and its provenance is retained.
				res.Provenance = tr
				res.Replans++
			} else {
				d := optimizer.DiffPlans(plan, next)
				d.Window, d.At, d.Reason = w, start, reason
				res.Diffs.Push(d)
				res.Replans++
				replanned = true
				changed = d.Changed
				if d.Changed {
					res.PlanChanges++
				}
				coll.Replan(w, start)
				plan, planProfile, havePlan = next, pred, true
				res.Provenance = tr
				cache.Store(ocfg, next)
			}
		}

		// Serve the window's arrivals under the active plan with a fresh
		// pipeline + batcher; the collector/ledger/tracer persist.
		pipe, err := scheduler.NewPipeline(eng, cfg.Cluster, cfg.Model, plan, coll)
		if err != nil {
			return nil, abort(w, err)
		}
		pipe.SetPool(pool)
		b := serving.NewBatcher(eng, pipe, plan.Batch, plan.Latency, 0.2)
		b.SetPool(pool)
		mix, rate := cfg.Workload(w)
		gen.SwitchDist(mix)
		// Poisson (not bursty) arrivals: each window must yield a usable
		// profile observation, and DefaultBursty's ~18 s idle gaps would
		// starve short windows to a few dozen samples of pure noise.
		st := trace.NewPoissonStream(rate, cfg.WindowDur, cfg.Seed+int64(w)*1000)
		stop := serving.FeedStream(eng, b, st, start, gen, cfg.SLO)
		err = eng.RunAll()
		// The window's stream is consumed (or the run aborted): join the
		// feed's producer before the next window switches gen's mix.
		stop()
		if err != nil {
			return nil, abort(w, err)
		}
		b.Flush()
		pipe.FlushAll()
		if err := eng.RunAll(); err != nil {
			return nil, abort(w, err)
		}

		// Observe: score the forecast, feed the estimator, account the
		// window.
		obs := coll.ObservedProfile()
		est.Observe(obs)
		served := coll.Good.Served - prevServed
		violations := coll.Violations - prevViolations
		dropped := coll.Dropped - prevDropped
		prevServed, prevViolations, prevDropped = coll.Good.Served, coll.Violations, coll.Dropped
		total := served + violations + dropped
		attain := 1.0
		if total > 0 {
			attain = float64(served) / float64(total)
		}
		// Fold the window into the error budget; a burn-rate breach is a
		// control-plane instant and a flight-recorder trigger.
		wb := budget.ObserveWindow(w, served, violations, dropped, cfg.WindowDur)
		if wb.Breached {
			coll.SLOBurn(w, eng.Now())
			if cfg.Recorder != nil {
				// The bundle reads the views: let the consumer catch up.
				coll.Sync()
			}
			cfg.Recorder.Trigger(slo.TriggerSLOBurn,
				fmt.Sprintf("window %d burn rate %.2f >= %.2f", w, wb.BurnRate, budget.BurnThreshold()),
				eng.Now())
		}
		res.Windows = append(res.Windows, WindowStat{
			Window: w, Start: start,
			Served: served, Violations: violations, Dropped: dropped,
			Goodput:       float64(served) / cfg.WindowDur,
			SLOAttainment: attain,
			ForecastMAE:   est.Stats.LastMAE(),
			Drift:         drift,
			GPUs:          plan.GPUs,
			Buffers:       buffers,
			Replanned:     replanned,
			PlanChanged:   changed,
			PlanCacheHit:  cacheHit,
			Budget:        wb,
		})
		// Snapshot the cumulative flame profile at the window boundary (a
		// record the consumer applies in order, not a wait); the fold is
		// pure, so this does not disturb the accumulator.
		coll.SnapshotFlame()
		coll.ResetWindow()
	}

	rep, flameStat := coll.Close(eng.Now())
	res.FlameWindows, res.FlameStat = coll.FlameWindows(), flameStat
	if !rep.OK() {
		cfg.Recorder.Trigger(slo.TriggerAuditViolation, rep.Violations[0], eng.Now())
	}
	res.Report = rep
	res.FinalPlan = plan
	res.MeanForecastMAE = est.Stats.MAE()
	res.PlanCacheHits, res.PlanCacheMisses = cache.Hits, cache.Misses
	return res, nil
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
