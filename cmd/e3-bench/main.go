// Command e3-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	e3-bench -list                 # list experiment IDs
//	e3-bench -fig fig07            # run one experiment
//	e3-bench -all                  # run everything (several minutes)
//	e3-bench fig07 fig12 fig19     # run a selection
//	e3-bench -trace-out demo.json  # export a Perfetto-loadable timeline
//	e3-bench -trace-out t.json -flame-out f.json  # timeline and flame profile of one run
//	e3-bench -flame-out f.json -flame-out f.folded -flame-out f.pb.gz  # one profile, three formats
//	e3-bench -bench-out bench.json # machine-readable stats + observer overhead gate
//	e3-bench -windows 20 -audit    # windowed replan loop + conservation gate
//	e3-bench -plan-bench BENCH_PR5.json  # planner search-path timings + plan gate
//	e3-bench -sim-bench BENCH_PR6.json   # paper-scale data plane + events/s floor
//	e3-bench -fleet-bench BENCH_PR10.json  # fleet scaling curve + scaling gate
//
// Each timing report (-bench-out on the static demo, -plan-bench,
// -sim-bench, -fleet-bench) is also the gate on its number: it records its
// bar and verdict in its report and exits 1 when the bar fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"e3/internal/bench"
	"e3/internal/cliutil"
	"e3/internal/experiments"
	"e3/internal/flame"
	"e3/internal/forecast"
	"e3/internal/replan"
	"e3/internal/scheduler"
	"e3/internal/slo"
	"e3/internal/telemetry"
)

// modeFlags maps each flag that starts or configures a run to the runs
// that read it, each run named by the flag that starts it. The static
// demo starts from any of -trace-out, -flame-out and -bench-out and reads
// each of them that is set; -flame-runner picks its flame run's runner.
var modeFlags = map[string][]string{
	"list":              {"list"},
	"plan-bench":        {"plan-bench"},
	"sim-bench":         {"sim-bench"},
	"fleet-bench":       {"fleet-bench"},
	"fleet":             {"fleet"},
	"fleet-workers":     {"fleet"},
	"windows":           {"windows"},
	"attr-out":          {"windows"},
	"bundle-on-failure": {"windows"},
	"slo-target":        {"windows"},
	"burn-threshold":    {"windows"},
	"trace-out":         {"trace-out", "windows"},
	"flame-out":         {"flame-out", "windows"},
	"bench-out":         {"bench-out", "windows"},
	"flame-runner":      {"flame-out"},
	"audit":             {"audit", "windows"},
	"all":               {"all"},
	"fig":               {"fig"},
}

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	fig := flag.String("fig", "", "run a single experiment by ID")
	all := flag.Bool("all", false, "run every registered experiment")
	auditRun := flag.Bool("audit", false, "run the lifecycle conservation audit (bursty open loop, all runners); exits nonzero on violations")
	format := flag.String("format", "table", "output format: table or csv")
	var out outputs
	flag.StringVar(&out.trace, "trace-out", "", "run the traced demo and write its Chrome trace-event timeline to FILE (load at ui.perfetto.dev); with -flame-out the same run is also profiled; exits nonzero if the run fails its audit")
	flag.StringVar(&out.bench, "bench-out", "", "run the traced demo and write machine-readable stats (throughput, latency quantiles, per-split utilization, the full observed stack's wall-clock overhead and its bound) to FILE; exits 1 if the overhead exceeds the bound")
	windows := flag.Int("windows", 0, "run the windowed replan loop (drifting mix, ARIMA vs persistence on the same seed) for N windows; combines with -audit (conservation gate), -bench-out, and -trace-out")
	planBench := flag.String("plan-bench", "", "time the planner search paths (reference vs memoized, serial vs parallel) across the model/cluster grid and write the JSON report to FILE; exits 1 if the memoized search misses its bar")
	simBench := flag.String("sim-bench", "", "run the data-plane fast-path benchmark (paper-scale 9000 req/s x 1h trace, engine churn micro) and write the JSON report to FILE; exits 1 below the events/s floor")
	flag.StringVar(&out.bundle, "bundle-on-failure", "", "with -windows: attach the flight recorder and, if any trigger fires (audit violation, SLO burn breach, engine abort), write its diagnostic bundle to FILE")
	flag.StringVar(&out.attr, "attr-out", "", "with -windows: write the per-request latency-attribution dump (component totals, per-stage compute, top-k slowest breakdowns) to FILE")
	sloTarget := flag.Float64("slo-target", slo.DefaultTarget, "with -windows: SLO attainment target the error budget is tracked against")
	burnThreshold := flag.Float64("burn-threshold", slo.DefaultBurnThreshold, "with -windows: burn-rate alert threshold (1 = burning exactly the budget)")
	flag.Func("flame-out", "run under the virtual-time compute profiler and write the flame profile to FILE (with -windows: profile of the whole replan run); repeat to write more files, each in the format its extension names: .folded collapsed stacks (flamegraph.pl / speedscope input), .pb.gz gzip pprof profile.proto (go tool pprof FILE), anything else JSON; exits nonzero unless the profile reconciles exactly", func(path string) error {
		if path != "" {
			out.flame = append(out.flame, path)
		}
		return nil
	})
	flameRunner := flag.String("flame-runner", "pipeline", "runner for the flame demo run (and for -trace-out alongside it): pipeline or serial (§5.8.7 phase-synchronized baseline)")
	fleetN := flag.Int("fleet", 0, "run the fleet demo with N replica shards (multi-tenant zoo, GPU-aware epoch routing) and print per-replica accounting")
	fleetWorkers := flag.Int("fleet-workers", 0, "with -fleet: shard-runner worker count (0 = one per shard); any count reproduces the serial reference byte-for-byte")
	fleetBench := flag.String("fleet-bench", "", "run the 1/2/4/8-shard fleet scaling curve (parallel-vs-serial digest check at every point) and write the JSON report to FILE; exits 1 below the 8-shard scaling bar for the cores present")
	flag.Parse()
	if *format != "table" && *format != "csv" {
		usage("unknown format %q", *format)
	}
	if *fleetWorkers < 0 {
		usage("-fleet-workers must not be negative (got %d)", *fleetWorkers)
	}

	// The run is the first of these flags that is on; every other flag
	// in modeFlags that is set must be one the run reads.
	run := ""
	given := map[string]bool{}
	for _, m := range []struct {
		flag string
		on   bool
	}{
		{"list", *list}, {"plan-bench", *planBench != ""}, {"sim-bench", *simBench != ""},
		{"fleet-bench", *fleetBench != ""}, {"fleet", *fleetN > 0}, {"windows", *windows > 0},
		{"trace-out", out.trace != ""}, {"flame-out", len(out.flame) > 0}, {"bench-out", out.bench != ""},
		{"audit", *auditRun}, {"all", *all}, {"fig", *fig != ""},
	} {
		given[m.flag] = m.on
		if m.on && run == "" {
			run = m.flag
		}
	}
	on := map[string]bool{run: true}
	if run == "trace-out" || run == "flame-out" || run == "bench-out" {
		on = map[string]bool{"trace-out": given["trace-out"], "flame-out": given["flame-out"], "bench-out": given["bench-out"]}
	}
	if name, mode := cliutil.StrayFlag(flag.CommandLine, modeFlags, on); name != "" {
		switch {
		case name == mode && !given[name]:
			usage("-%s %s starts no run", name, flag.Lookup(name).Value)
		case given[name] || given[mode]:
			usage("-%s cannot combine with -%s", name, run)
		default:
			usage("-%s needs -%s (it only configures that mode)", name, mode)
		}
	}
	if run != "" && flag.NArg() > 0 {
		usage("-%s cannot combine with experiment IDs as arguments (%s)", run, strings.Join(flag.Args(), " "))
	}

	// Every runtime error ends here: it is printed, and the process exits
	// 1 once every requested run has had its turn.
	exit := 0
	report := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "e3-bench:", err)
			exit = 1
		}
	}
	switch run {
	case "list":
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
	case "plan-bench":
		report(runPlanBench(*planBench))
	case "sim-bench":
		report(runSimBench(*simBench))
	case "fleet-bench":
		report(runFleetBench(*fleetBench))
	case "fleet":
		workers := *fleetWorkers
		if workers == 0 {
			workers = *fleetN
		}
		report(runFleetOnce(*fleetN, workers))
	case "windows":
		report(runReplan(*windows, *auditRun, out, *sloTarget, *burnThreshold))
	case "trace-out", "flame-out", "bench-out":
		if out.trace != "" || len(out.flame) > 0 {
			if len(out.flame) > 0 && *flameRunner != "pipeline" && *flameRunner != "serial" {
				usage("-flame-runner must be pipeline or serial (got %q)", *flameRunner)
			}
			report(runStaticDemo(out, *flameRunner))
		}
		if out.bench != "" {
			report(exportBench(out.bench))
		}
	case "audit":
		start := time.Now()
		t, violations := experiments.RunAudit()
		printTable(t, *format, start)
		if violations > 0 {
			report(fmt.Errorf("audit found %d conservation violation(s)", violations))
		}
	default:
		var ids []string
		switch run {
		case "all":
			ids = experiments.IDs()
		case "fig":
			ids = []string{*fig}
		default:
			ids = flag.Args()
		}
		if len(ids) == 0 {
			usage("nothing to run; try -list, -all, or -fig <id>")
		}
		for _, id := range ids {
			start := time.Now()
			t, err := experiments.Run(id)
			if err != nil {
				report(err)
				continue
			}
			printTable(t, *format, start)
			if *format == "csv" {
				fmt.Println()
			}
		}
	}
	os.Exit(exit)
}

// usage reports a command-line mistake and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e3-bench: "+format+"\n", args...)
	os.Exit(2)
}

// printTable prints an experiment's table in the requested format; the
// table format adds the run's wall time since start.
func printTable(t experiments.Table, format string, start time.Time) {
	if format == "csv" {
		fmt.Printf("# %s: %s\n", t.ID, t.Title)
		t.CSV(os.Stdout)
		return
	}
	t.Print(os.Stdout)
	fmt.Printf("  (completed in %.1fs)\n\n", time.Since(start).Seconds())
}

// benchSplit is one split's occupancy in the bench report.
type benchSplit struct {
	Split     int     `json:"split"`
	GPUs      int     `json:"gpus"`
	Util      float64 `json:"utilization"`
	BubbleS   float64 `json:"bubble_gpu_seconds"`
	MeanBatch float64 `json:"mean_batch"`
}

// benchReport is the machine-readable -bench-out payload.
type benchReport struct {
	Experiment      string       `json:"experiment"`
	HorizonVirtualS float64      `json:"horizon_virtual_s"`
	Samples         int          `json:"samples"`
	Completed       int          `json:"completed"`
	Dropped         int          `json:"dropped"`
	ThroughputRPS   float64      `json:"throughput_rps"`
	P50MS           float64      `json:"p50_ms"`
	P99MS           float64      `json:"p99_ms"`
	Splits          []benchSplit `json:"splits"`
	// Wall-clock cost of the demo run with no observers vs. with the full
	// observed stack (4096-span ring, attribution, flame profiler), each
	// the best of overheadRuns after the stats run; the relative overhead;
	// and the overhead gate's bound and verdict (see overheadPass).
	UntracedWallMS      float64 `json:"untraced_wall_ms"`
	ObservedWallMS      float64 `json:"observed_wall_ms"`
	ObservedOverheadPct float64 `json:"observed_overhead_pct"`
	BoundMS             float64 `json:"observed_bound_ms"`
	Pass                bool    `json:"pass"`
}

// The overhead gate: the full observed stack may take overheadFactor
// times the untraced demo's wall time, plus overheadSlackMS of absolute
// timer noise on runs this short. overheadRuns is how many timed runs
// each side takes its best of.
const (
	overheadFactor  = 1.5
	overheadSlackMS = 10.0
	overheadRuns    = 5
)

// overheadPass is the overhead gate's verdict on the best untraced and
// observed wall times, with the bound it checked the observed run
// against.
func overheadPass(untracedMS, observedMS float64) (boundMS float64, pass bool) {
	boundMS = untracedMS*overheadFactor + overheadSlackMS
	return boundMS, observedMS <= boundMS
}

// timeDemo runs the demo runs times with the observers mk attaches and
// returns the fastest run's wall time in milliseconds. Every run must
// pass its audit; after its timed region, an observed run must also
// reconcile its flame profile exactly and yield a flight-recorder bundle.
func timeDemo(runs int, mk func() scheduler.Observers) (float64, error) {
	best := 0.0
	for i := 0; i < runs; i++ {
		obs := mk()
		start := time.Now()
		rep, stat, coll, _, err := experiments.RunDemo("pipeline", obs, experiments.DemoHorizon)
		ms := time.Since(start).Seconds() * 1e3
		if err != nil {
			return 0, err
		}
		if err := rep.Err(); err != nil {
			return 0, err
		}
		if obs.Flame != nil && !stat.OK() {
			return 0, fmt.Errorf("flame reconcile residual %dns during an overhead run", stat.Residual)
		}
		if obs.Attr != nil {
			rec := &slo.Recorder{Spans: obs.Tracer, Ledger: coll.Audit, Attr: obs.Attr}
			if rec.Trigger(slo.TriggerEngineAbort, "overhead probe", experiments.DemoHorizon) == nil {
				return 0, fmt.Errorf("flight recorder produced no bundle during an overhead run")
			}
		}
		if i == 0 || ms < best {
			best = ms
		}
	}
	return best, nil
}

// exportBench measures the traced demo and the overhead of the full
// observed stack on it, writes the JSON report and fails if the overhead
// gate does.
func exportBench(path string) error {
	// Stats run: unbounded tracer for the occupancy summary. It also pays
	// lazy initialization before either side of the overhead runs.
	tr := telemetry.New()
	rep, _, coll, _, err := experiments.RunDemo("pipeline", scheduler.Observers{Tracer: tr}, experiments.DemoHorizon)
	if err != nil {
		return err
	}
	if err := rep.Err(); err != nil {
		return err
	}
	out := benchReport{
		Experiment:      "traced-demo (BERT-Base DeeBERT, V100x8, bursty open loop)",
		HorizonVirtualS: experiments.DemoHorizon,
		Samples:         rep.Samples,
		Completed:       rep.Completed,
		Dropped:         rep.Dropped,
		ThroughputRPS:   float64(rep.Completed) / experiments.DemoHorizon,
		P50MS:           coll.Lat.Quantile(0.50) * 1e3,
		P99MS:           coll.Lat.Quantile(0.99) * 1e3,
	}
	for _, sp := range telemetry.Summarize(tr.Spans()).Splits {
		out.Splits = append(out.Splits, benchSplit{
			Split: sp.Stage, GPUs: sp.Tracks, Util: sp.Util,
			BubbleS: sp.Bubble, MeanBatch: sp.MeanBatch,
		})
	}

	// Overhead runs: no observers vs. the full live-serving stack.
	untraced := func() scheduler.Observers { return scheduler.Observers{} }
	observed := func() scheduler.Observers {
		return scheduler.Observers{
			Tracer: telemetry.NewRing(4096),
			Attr:   slo.NewAttribution(slo.DefaultTopK),
			Flame:  flame.NewProfiler(0),
		}
	}
	if out.UntracedWallMS, err = timeDemo(overheadRuns, untraced); err != nil {
		return err
	}
	if out.ObservedWallMS, err = timeDemo(overheadRuns, observed); err != nil {
		return err
	}
	out.ObservedOverheadPct = (out.ObservedWallMS - out.UntracedWallMS) / out.UntracedWallMS * 100
	out.BoundMS, out.Pass = overheadPass(out.UntracedWallMS, out.ObservedWallMS)

	env, err := bench.Wrap("traced-demo", experiments.DemoSeed,
		&bench.TraceParams{HorizonS: experiments.DemoHorizon, AvgRate: experiments.DemoAvgRate, Batch: experiments.DemoBatch},
		map[string]float64{
			"throughput_rps":        out.ThroughputRPS,
			"p99_ms":                out.P99MS,
			"observed_overhead_pct": out.ObservedOverheadPct,
		}, out)
	if err != nil {
		return err
	}
	if err := bench.WriteFile(path, env); err != nil {
		return err
	}
	fmt.Printf("wrote benchmark stats to %s (throughput %.1f req/s, p99 %.1fms)\n", path, out.ThroughputRPS, out.P99MS)
	fmt.Printf("overhead gate: observed stack %.2fms vs untraced %.2fms (%+.1f%%; bar <= %gx untraced + %gms = %.2fms): pass=%v\n",
		out.ObservedWallMS, out.UntracedWallMS, out.ObservedOverheadPct, overheadFactor, overheadSlackMS, out.BoundMS, out.Pass)
	if !out.Pass {
		return fmt.Errorf("observed stack took %.2fms, over the %.2fms bound", out.ObservedWallMS, out.BoundMS)
	}
	return nil
}

// replanReport is the machine-readable -windows -bench-out payload.
type replanReport struct {
	Experiment string  `json:"experiment"`
	Windows    int     `json:"windows"`
	WindowDurS float64 `json:"window_dur_s"`
	Seed       int64   `json:"seed"`

	Replans         int      `json:"replans"`
	PlanChanges     int      `json:"plan_changes"`
	PlanCacheHits   int      `json:"plan_cache_hits"`
	PlanCacheMisses int      `json:"plan_cache_misses"`
	FinalPlan       string   `json:"final_plan"`
	PlanDiffs       []string `json:"plan_diffs"`

	// Forecast accuracy of the primary (ARIMA) run vs. the persistence
	// baseline on the same seed and workload drift. ARIMABeatsPersistence
	// is null when the comparison is inconclusive (no ARIMA fit).
	ForecastMAEARIMA       float64        `json:"forecast_mae_arima"`
	ForecastMAEPersistence float64        `json:"forecast_mae_persistence"`
	ARIMABeatsPersistence  *bool          `json:"arima_beats_persistence"`
	ForecastsARIMA         forecastCounts `json:"forecasts_arima"`
	ForecastsPersistence   forecastCounts `json:"forecasts_persistence"`

	AuditSamples    int `json:"audit_samples"`
	AuditCompleted  int `json:"audit_completed"`
	AuditDropped    int `json:"audit_dropped"`
	AuditViolations int `json:"audit_violations"`

	// Error-budget accounting across the run (per-window detail rides in
	// per_window[].budget).
	SLOTarget      float64 `json:"slo_target"`
	BudgetBreaches int     `json:"budget_breaches"`

	// Flame profiling of the whole replan run (only with -flame-out): the
	// exact-reconcile verdict plus each window's own busy/bubble time
	// (deltas of the cumulative boundary snapshots).
	FlameReconcile *flame.ReconcileStat `json:"flame_reconcile,omitempty"`
	FlameWindows   []flameWindowStat    `json:"flame_windows,omitempty"`

	PerWindow []replan.WindowStat `json:"per_window"`
}

// forecastCounts is one forecaster's per-layer forecast tally: how many
// it made, and how many of those no fitted model produced.
type forecastCounts struct {
	Forecasts   int `json:"forecasts"`
	Fallbacks   int `json:"persistence_fallbacks"`
	FitFailures int `json:"fit_failures"`
}

func countForecasts(s *forecast.Stats) forecastCounts {
	return forecastCounts{Forecasts: s.Forecasts(), Fallbacks: s.PersistenceFallbacks(), FitFailures: s.FitFailures()}
}

// forecastVerdict compares the ARIMA run's forecast MAE with the
// persistence baseline's. When every ARIMA forecast fell back to
// persistence (too little history to fit), both runs forecast the same
// values and the comparison says nothing: the verdict is inconclusive and
// beats is nil.
func forecastVerdict(arima, persistence *forecast.Stats) (verdict string, beats *bool) {
	if c := countForecasts(arima); c.Fallbacks+c.FitFailures == c.Forecasts {
		return "inconclusive (every ARIMA forecast fell back to persistence)", nil
	}
	b := arima.MAE() < persistence.MAE()
	if b {
		return "ARIMA beats persistence", &b
	}
	return "ARIMA does not beat persistence", &b
}

// flameWindowStat is one window's own compute, from differencing
// consecutive cumulative flame snapshots at window boundaries.
type flameWindowStat struct {
	Window      int   `json:"window"`
	BusyNanos   int64 `json:"busy_nanos"`
	BubbleNanos int64 `json:"bubble_nanos"`
}

// flameWindowStats turns the replan loop's cumulative per-boundary
// snapshots into per-window deltas.
func flameWindowStats(snaps []*flame.Profile) []flameWindowStat {
	out := make([]flameWindowStat, 0, len(snaps))
	var prevBusy, prevBubble int64
	for i, pr := range snaps {
		busy, bubble := pr.BusyNanos(), pr.BubbleNanos()
		out = append(out, flameWindowStat{
			Window: i, BusyNanos: busy - prevBusy, BubbleNanos: bubble - prevBubble,
		})
		prevBusy, prevBubble = busy, bubble
	}
	return out
}

// runReplan drives the windowed predict→plan→serve→observe loop on the
// drifting-mix demo and prints the per-window table, then writes the
// artifacts out names. auditGate makes any conservation or reconcile
// violation fatal (the `make verify` gate). out.bundle arms the flight
// recorder, whose bundle is written only when a trigger fires.
func runReplan(windows int, auditGate bool, out outputs, sloTarget, burnThreshold float64) error {
	var tr *telemetry.Tracer
	if out.trace != "" {
		tr = telemetry.New()
	}
	cfg := replan.DriftingDemo(windows, forecast.MethodARIMA, tr)
	attr := slo.NewAttribution(slo.DefaultTopK)
	cfg.Attr = attr
	cfg.SLOTarget = sloTarget
	cfg.BurnThreshold = burnThreshold
	if len(out.flame) > 0 {
		cfg.Flame = flame.NewProfiler(0)
	}
	var rec *slo.Recorder
	if out.bundle != "" {
		// The recorder needs a span ring to snapshot; give the run one
		// when -trace-out didn't already attach a tracer.
		if cfg.Tracer == nil {
			cfg.Tracer = telemetry.NewRing(2048)
		}
		rec = &slo.Recorder{}
		cfg.Recorder = rec
	}
	start := time.Now()
	res, err := replan.Run(cfg)
	if err != nil {
		return err
	}
	// Persistence baseline: same seed, same drift, forecaster swapped.
	base, err := replan.Run(replan.DriftingDemo(windows, forecast.MethodPersistence, nil))
	if err != nil {
		return err
	}

	fmt.Printf("replan loop: %d windows x %gs virtual (drifting mix, ARIMA forecaster)\n\n", windows, cfg.WindowDur)
	fmt.Printf("%-7s %-10s %-9s %-7s %-8s %-9s %-8s %-8s %-7s %s\n",
		"window", "goodput/s", "slo-att", "burn", "bgt-rem", "fcst-mae", "drift", "replan", "cache", "plan")
	for _, ws := range res.Windows {
		mark := "-"
		switch {
		case ws.PlanChanged:
			mark = "CHANGED"
		case ws.Replanned:
			mark = "kept"
		}
		cache := "-"
		switch {
		case ws.PlanCacheHit:
			cache = "hit"
		case ws.Replanned:
			cache = "miss"
		}
		burn := fmt.Sprintf("%.2f", ws.Budget.BurnRate)
		if ws.Budget.Breached {
			burn += "!"
		}
		fmt.Printf("%-7d %-10.0f %-9.3f %-7s %-8.3f %-9.4f %-8.3f %-8v %-7s %s\n",
			ws.Window, ws.Goodput, ws.SLOAttainment, burn, ws.Budget.BudgetRemaining,
			ws.ForecastMAE, ws.Drift, ws.Replanned, cache, mark)
	}
	fmt.Println()
	for _, d := range res.Diffs.Items() {
		fmt.Println(d.String())
	}
	fmt.Printf("\nreplans: %d (%d plan changes, %d plan-cache hits / %d misses); final plan: %s\n",
		res.Replans, res.PlanChanges, res.PlanCacheHits, res.PlanCacheMisses, res.FinalPlan)
	fmt.Printf("forecast MAE: arima %.4f vs persistence %.4f\n", res.MeanForecastMAE, base.MeanForecastMAE)
	verdict, beats := forecastVerdict(res.Forecast, base.Forecast)
	fa, fp := countForecasts(res.Forecast), countForecasts(base.Forecast)
	fmt.Printf("forecast fallbacks (short history + fit failures, of per-layer forecasts): arima %d+%d of %d, persistence %d+%d of %d; %s\n",
		fa.Fallbacks, fa.FitFailures, fa.Forecasts, fp.Fallbacks, fp.FitFailures, fp.Forecasts, verdict)
	fmt.Printf("SLO budget: target %.3f, %d/%d windows breached burn threshold %.1f\n",
		res.Budget.Target(), res.Budget.Breaches(), res.Budget.Windows(), res.Budget.BurnThreshold())
	completed, dropped, attributed := attr.Counts()
	fmt.Printf("attribution: %d completed / %d dropped, %d breakdowns folded, %d sum mismatches (max residual %.3g s)\n",
		completed, dropped, attributed, attr.Mismatches(), attr.MaxResidual())
	fmt.Printf("%s\n", res.Report)
	fmt.Printf("(completed in %.1fs)\n", time.Since(start).Seconds())

	if out.trace != "" {
		if err := writeTraceFile(out.trace, tr); err != nil {
			return err
		}
		fmt.Printf("wrote %d spans to %s\n", len(tr.Spans()), out.trace)
	}
	if out.bundle != "" {
		if rec.TriggerCount() == 0 {
			fmt.Println("flight recorder: no triggers fired; no bundle written")
		} else {
			if err := writeArtifact(out.bundle, rec.Last().WriteJSON); err != nil {
				return err
			}
			fmt.Printf("flight recorder: %d trigger(s) fired; wrote bundle to %s\n", rec.TriggerCount(), out.bundle)
		}
	}
	if out.attr != "" {
		if err := writeArtifact(out.attr, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(attr.Dump())
		}); err != nil {
			return err
		}
		fmt.Printf("wrote attribution dump to %s\n", out.attr)
	}
	if cfg.Flame != nil {
		if err := writeFlame(cfg.Flame.Profile(), out.flame); err != nil {
			return err
		}
		fmt.Println(reconcileVerdict(res.FlameStat))
	}
	if out.bench != "" {
		rep := replanReport{
			Experiment:             "replan-loop (BERT-Base DeeBERT, V100x8, easy mix 0.9->0.3)",
			Windows:                windows,
			WindowDurS:             cfg.WindowDur,
			Seed:                   cfg.Seed,
			Replans:                res.Replans,
			PlanChanges:            res.PlanChanges,
			PlanCacheHits:          res.PlanCacheHits,
			PlanCacheMisses:        res.PlanCacheMisses,
			FinalPlan:              res.FinalPlan.String(),
			PlanDiffs:              []string{},
			ForecastMAEARIMA:       res.MeanForecastMAE,
			ForecastMAEPersistence: base.MeanForecastMAE,
			ARIMABeatsPersistence:  beats,
			ForecastsARIMA:         fa,
			ForecastsPersistence:   fp,
			AuditSamples:           res.Report.Samples,
			AuditCompleted:         res.Report.Completed,
			AuditDropped:           res.Report.Dropped,
			AuditViolations:        len(res.Report.Violations),
			SLOTarget:              res.Budget.Target(),
			BudgetBreaches:         res.Budget.Breaches(),
			PerWindow:              res.Windows,
		}
		for _, d := range res.Diffs.Items() {
			rep.PlanDiffs = append(rep.PlanDiffs, d.String())
		}
		if cfg.Flame != nil {
			stat := res.FlameStat
			rep.FlameReconcile = &stat
			rep.FlameWindows = flameWindowStats(res.FlameWindows)
		}
		_, rate := cfg.Workload(0)
		env, err := bench.Wrap("replan-loop", rep.Seed,
			&bench.TraceParams{Windows: windows, WindowDurS: rep.WindowDurS, AvgRate: rate, Batch: cfg.Batch},
			map[string]float64{
				"replans":            float64(res.Replans),
				"plan_changes":       float64(res.PlanChanges),
				"forecast_mae_arima": res.MeanForecastMAE,
				"budget_breaches":    float64(res.Budget.Breaches()),
			}, rep)
		if err == nil {
			err = bench.WriteFile(out.bench, env)
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote replan stats to %s\n", out.bench)
	}

	if auditGate {
		if err := res.Report.Err(); err != nil {
			return err
		}
		if err := base.Report.Err(); err != nil {
			return fmt.Errorf("persistence baseline: %w", err)
		}
		fmt.Println("audit: ok (sample lifecycle conserved across all plan switches)")
	}
	return nil
}
