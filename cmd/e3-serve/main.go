// Command e3-serve plans an E3 deployment and serves it over HTTP/JSON,
// mirroring the paper's TorchServe front end (§4).
//
// Usage:
//
//	e3-serve -addr :8080 -model bert-base -gpus V100=16 -batch 8
//
// Endpoints:
//
//	POST /v1/infer        {"difficulty": 0.42}
//	GET  /v1/plan
//	GET  /v1/stats
//	GET  /v1/trace        (recent spans of the boot-time simulated run)
//	GET  /v1/flame        (virtual-time compute profile of the boot run; ?format=json|folded|pprof)
//	GET  /v1/health       (readiness: plan, replan loop, audit, SLO budget, flame reconcile)
//	GET  /v1/debug/bundle (flight-recorder diagnostic bundle)
//	GET  /metrics         (Prometheus text exposition)
//	GET  /healthz
//	GET  /debug/pprof/*   (only with -pprof)
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"e3/internal/cliutil"
	"e3/internal/cluster"
	"e3/internal/flame"
	"e3/internal/fleet"
	"e3/internal/forecast"
	"e3/internal/httpapi"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/replan"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/slo"
	"e3/internal/telemetry"
	"e3/internal/trace"
	"e3/internal/workload"
)

// modeFlags maps each flag that only configures one mode to that mode,
// named by the flag that turns it on.
var modeFlags = map[string][]string{
	"slo-target":     {"replan-windows"},
	"burn-threshold": {"replan-windows"},
	"fleet-workers":  {"fleet"},
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	modelName := flag.String("model", "bert-base", "model: bert-base, bert-large, distilbert, resnet50")
	gpus := flag.String("gpus", "V100=16", "cluster spec, e.g. V100=6,P100=8,K80=15")
	batch := flag.Int("batch", 8, "input batch size")
	sloDur := flag.Duration("slo", 100*time.Millisecond, "latency SLO")
	easy := flag.Float64("easy", 0.8, "easy fraction of the expected workload")
	auditBoot := flag.Bool("audit", false, "verify the plan with a boot-time lifecycle conservation audit and expose it via /v1/stats")
	traceRing := flag.Int("trace-ring", 4096, "retain the most recent N spans of the boot-time simulated run for /metrics and /v1/trace (0 disables boot telemetry)")
	replanWindows := flag.Int("replan-windows", 0, "run the windowed replan loop for N windows at boot and expose its provenance, forecast telemetry, and plan-diff history via /v1/plan and /metrics")
	sloTarget := flag.Float64("slo-target", slo.DefaultTarget, "with -replan-windows: SLO attainment target the error budget accrues against")
	burnThreshold := flag.Float64("burn-threshold", slo.DefaultBurnThreshold, "with -replan-windows: window burn rate that counts as a budget breach")
	pprofDebug := flag.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/ (off by default; enable only on trusted networks)")
	fleetN := flag.Int("fleet", 0, "run the N-replica fleet demo (multi-tenant zoo, GPU-aware epoch routing) at boot and expose per-replica rows via /v1/health and e3_fleet_* series via /metrics")
	fleetWorkers := flag.Int("fleet-workers", 0, "with -fleet: shard-runner worker count (0 = one per shard)")
	flag.Parse()

	on := map[string]bool{"replan-windows": *replanWindows > 0, "fleet": *fleetN > 0}
	if name, mode := cliutil.StrayFlag(flag.CommandLine, modeFlags, on); name != "" {
		fmt.Fprintf(os.Stderr, "e3-serve: -%s needs -%s (it only configures that mode)\n", name, mode)
		os.Exit(2)
	}
	m, err := cliutil.BuildModel(*modelName, 0.4)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e3-serve:", err)
		os.Exit(2)
	}
	counts, err := cliutil.ParseGPUSpec(*gpus)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e3-serve:", err)
		os.Exit(2)
	}
	clus := cluster.New(counts, 2)

	prof := profile.Offline(m, workload.Mix(*easy))
	bootTrace := &optimizer.SearchTrace{}
	problem := optimizer.NewConfig(m, prof, *batch, clus, sloDur.Seconds())
	problem.Trace = bootTrace
	plan, err := optimizer.MaximizeGoodput(problem)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e3-serve: planning failed:", err)
		os.Exit(1)
	}
	log.Printf("e3-serve: %s", plan)

	// boot collects what the boot runs leave for the API. The boot plan's
	// search provenance is always exposed; a replan loop replaces it with
	// the last search's trace plus the diff history.
	boot := httpapi.Boot{
		ControlPlane: &serving.ControlPlane{Provenance: bootTrace},
		Recorder:     &slo.Recorder{},
	}
	if *replanWindows > 0 {
		// Drive the windowed predict→plan→serve→observe loop on this
		// deployment with the easy fraction drifting away from the boot
		// assumption, then serve the loop's final (adapted) plan. The loop
		// gets its own span ring (separate from the boot self-check's ring,
		// whose counters must reconcile against the boot run alone), plus
		// the attribution, error budget, and flight recorder the live
		// /v1/health, /metrics, and /v1/debug/bundle endpoints expose.
		loopTr := telemetry.NewRing(2048)
		loopAttr := slo.NewAttribution(slo.DefaultTopK)
		// Window 0 plans from the boot profile, which the offered rate
		// (the boot plan's goodput) assumes.
		bootRate := plan.Goodput
		res, err := replan.Run(replan.Config{
			Model: m, Cluster: clus, Batch: *batch, SLO: sloDur.Seconds(),
			Windows: *replanWindows, WindowDur: 2.0,
			Seed: 424242, DriftThreshold: 0.05,
			Workload: func(w int) (workload.Dist, float64) {
				frac := *easy
				if *replanWindows > 1 {
					frac -= (*easy - 0.3) * float64(w) / float64(*replanWindows-1)
				}
				return workload.Mix(frac), bootRate
			},
			Initial:   prof,
			Method:    forecast.MethodARIMA,
			Observers: scheduler.Observers{Tracer: loopTr, Attr: loopAttr},
			SLOTarget: *sloTarget, BurnThreshold: *burnThreshold,
			Recorder: boot.Recorder,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "e3-serve: replan loop failed:", err)
			os.Exit(1)
		}
		if !res.Report.OK() {
			fmt.Fprintln(os.Stderr, "e3-serve: refusing to serve a replan loop that fails conservation")
			os.Exit(1)
		}
		log.Printf("e3-serve: replan loop: %d windows, %d replans (%d plan changes, %d plan-cache hits), forecast MAE %.4f",
			*replanWindows, res.Replans, res.PlanChanges, res.PlanCacheHits, res.MeanForecastMAE)
		if res.Budget.Breaches() > 0 {
			log.Printf("e3-serve: SLO budget: %d of %d windows breached burn threshold %.1f",
				res.Budget.Breaches(), res.Budget.Windows(), res.Budget.BurnThreshold())
		}
		plan = res.FinalPlan
		log.Printf("e3-serve: serving adapted plan: %s", plan)
		boot.ControlPlane = &res.ControlPlane
	}

	var tr *telemetry.Tracer
	if *traceRing > 0 {
		tr = telemetry.NewRing(*traceRing)
	}
	if *auditBoot || tr != nil {
		// Self-check before serving: replay a bursty open-loop trace at the
		// planned goodput through the full batching/scheduling stack with
		// the ledger, tracer, and per-request attribution attached. The run
		// both verifies that every sample is accounted exactly once (and
		// that every critical-path breakdown sums to its request's latency)
		// and warms the telemetry the live /metrics and /v1/trace endpoints
		// expose.
		attr := slo.NewAttribution(slo.DefaultTopK)
		fl := flame.NewProfiler(0)
		rep, flStat, coll, err := serving.AuditedOpenLoop(func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error) {
			return scheduler.NewPipeline(eng, clus, m, plan, coll)
		}, m.Base.NumLayers(), trace.Bursty(trace.DefaultBursty(plan.Goodput), 10.0, 1), workload.Mix(*easy),
			plan.Latency, sloDur.Seconds(), plan.Batch, 1, scheduler.Observers{Tracer: tr, Attr: attr, Flame: fl})
		if err != nil {
			fmt.Fprintln(os.Stderr, "e3-serve: boot run failed:", err)
			os.Exit(1)
		}
		// Expose the boot run's virtual-time compute profile (where the
		// fleet's GPU-seconds went) via /v1/flame; the exact-reconcile
		// verdict also rides on /v1/health.
		boot.Flame, boot.FlameStat = fl.Profile(), flStat
		log.Printf("e3-serve: flame profile: %d devices reconciled, residual %dns (ok=%v)",
			flStat.Devices, flStat.Residual, flStat.OK())
		// When no replan loop armed the recorder, arm it with the boot
		// run's state so /v1/debug/bundle can dump it on a later trigger.
		if rec := boot.Recorder; rec.Ledger == nil {
			rec.Spans = tr
			rec.Ledger = coll.Audit
			rec.Attr = attr
		}
		if *auditBoot {
			log.Printf("e3-serve: %s", rep)
			if !rep.OK() {
				fmt.Fprintln(os.Stderr, "e3-serve: refusing to serve a plan that fails conservation")
				os.Exit(1)
			}
			boot.Audit = rep
		}
		if tr != nil {
			boot.Tracer = tr
			log.Printf("e3-serve: telemetry ring holds %d of %d recorded spans", len(tr.Spans()), tr.Total())
		}
	}

	if *fleetN > 0 {
		// Boot-time fleet run: N replica clusters under the demo zoo,
		// sharded in parallel with the deterministic runner, verified for
		// conservation, then exposed read-only on /v1/health and /metrics.
		workers := *fleetWorkers
		if workers <= 0 {
			workers = *fleetN
		}
		res, err := fleet.Run(fleet.DemoConfig(*fleetN, workers))
		if err != nil {
			fmt.Fprintln(os.Stderr, "e3-serve: fleet run failed:", err)
			os.Exit(1)
		}
		log.Printf("e3-serve: fleet: %d replicas x %d workers, %d epochs: %d minted = %d routed + %d shed, %d events",
			*fleetN, workers, res.Epochs, res.Minted, res.Routed, res.DoorShed, res.Events)
		boot.Fleet = httpapi.FleetStatusOf(res)
	}

	handler := httpapi.NewAPI(m, plan, boot).Handler()
	if *pprofDebug {
		// pprof is opt-in: profiling endpoints leak heap contents and cost
		// CPU, so they stay off unless explicitly requested. The routes live
		// on an outer mux so the httpapi package itself never imports
		// net/http/pprof.
		outer := http.NewServeMux()
		outer.Handle("/", handler)
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = outer
		log.Printf("e3-serve: pprof enabled at /debug/pprof/")
	}
	log.Printf("e3-serve: listening on %s", *addr)
	if err := http.ListenAndServe(*addr, handler); err != nil {
		log.Fatal(err)
	}
}
