package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"e3/internal/audit"
	"e3/internal/experiments"
	"e3/internal/flame"
	"e3/internal/fleet"
	"e3/internal/forecast"
	"e3/internal/metrics"
	"e3/internal/optimizer"
	"e3/internal/replan"
	"e3/internal/slo"
	"e3/internal/telemetry"
)

// Rep lengths, sized so one rep takes about a second on a 2-core host
// (-smoke runs a fifth of each). All four workloads are open loop in
// virtual time: arrivals fire at their due instant and latency runs from
// Sample.Arrival, so the generator is never late.
const (
	overloadRate = 9000.0
	steadyRate   = 4000.0
	// clusterHorizon is 5% of the paper-scale hour.
	clusterHorizon = 180.0
	// replanWindows is a fifth of the 240 two-second windows; the demo's
	// easy fraction drifts 0.9 → 0.3 across however many there are.
	replanWindows = 48
	// fleetHorizon is a tenth of fleet-hetero's 1800 s.
	fleetHorizon = 180.0
	// warmupFrac of each horizon runs untimed before the timed region.
	warmupFrac = 0.01
	// setupRuns is how many times a rep sets up; setup_s is the median.
	setupRuns = 5
)

// workloadDef binds a workload name to its default seed and its two
// measurements: a timed rep, and a traced run that also fills the layer
// metrics only that workload can give.
type workloadDef struct {
	name   string
	seed   int64
	rep    func(seed int64, scale float64) repResult
	traced func(seed int64, scale float64) tracedResult
}

var workloads = []workloadDef{
	{"cluster-overload", 97, clusterRep(overloadRate), clusterTraced(overloadRate)},
	{"cluster-steady", 97, clusterRep(steadyRate), clusterTraced(steadyRate)},
	{"replan-observed", 424242, replanRep, replanTraced},
	{"fleet-hetero", 1097, fleetRep, fleetTraced},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// outcome is what the simulated system did in one run: virtual results,
// identical on every host for a given seed.
type outcome struct {
	// Requests counts minted requests; Served those completed within SLO.
	Requests int `json:"requests"`
	Served   int `json:"served"`
	// Completions counts the latency samples behind P50 and P999.
	Completions int `json:"completions"`
	// Goodput is Served per virtual second; P50 and P999 are virtual
	// completion latencies in seconds.
	Goodput float64 `json:"goodput"`
	P50     float64 `json:"p50_s"`
	P999    float64 `json:"p999_s"`
	// Events counts engine events (0 where the workload hides its engine).
	Events uint64 `json:"events"`
	// Digest is the sha256 of the run's ledger digests (replan: of its
	// per-window results, as replan.Result exposes no ledger).
	Digest   string   `json:"digest"`
	Failures []string `json:"failures,omitempty"`
}

func (o *outcome) fail(format string, args ...any) {
	o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
}

func failed(err error) outcome {
	var o outcome
	o.fail("%v", err)
	return o
}

// repResult is one timed rep, measured inside its own child process.
// Times are as measured; the speed indexes taken just before and just
// after the timed region scale them to the reference host.
type repResult struct {
	outcome
	WallS       float64 `json:"wall_s"`
	CPUS        float64 `json:"cpu_s"`
	SetupS      float64 `json:"setup_s"`
	PeakRSSMB   float64 `json:"peak_rss_mb"`
	SpeedBefore float64 `json:"speed_before"`
	SpeedAfter  float64 `json:"speed_after"`
}

// speed is the host speed index over the timed region.
func (r repResult) speed() float64 { return (r.SpeedBefore + r.SpeedAfter) / 2 }

// tracedResult is one traced child: the workload's traced run plus every
// layer metric. WallS is as measured and Speed the host speed index
// around it; layer times are already scaled to the reference host.
type tracedResult struct {
	outcome
	WallS  float64            `json:"wall_s"`
	Speed  float64            `json:"speed"`
	Layers map[string]float64 `json:"layers"`
}

// timeRep prices a rep's timed region, which keeps `cores` cores busy;
// setupS is the rep's median set-up.
func timeRep(cores int, setupS float64, fn func() error) (repResult, error) {
	c, err := measureOn(cores, fn)
	return repResult{
		WallS: c.wall, CPUS: c.cpu, SetupS: setupS, PeakRSSMB: c.peakRSSMB,
		SpeedBefore: c.speedBefore, SpeedAfter: c.speedAfter,
	}, err
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// medianSetup runs setup n times and returns the median wall and CPU
// seconds of one set-up.
func medianSetup(n int, setup func() error) (wall, cpu float64, err error) {
	walls := make([]float64, n)
	cpus := make([]float64, n)
	for i := range walls {
		c0 := cpuSeconds()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, 0, fmt.Errorf("setup: %w", err)
		}
		walls[i] = time.Since(t0).Seconds()
		cpus[i] = cpuSeconds() - c0
	}
	return median(walls), median(cpus), nil
}

// ---- cluster-overload, cluster-steady ----

func clusterRep(rate float64) func(int64, float64) repResult {
	return func(seed int64, scale float64) repResult {
		cfg := clusterConfig(rate, clusterHorizon*scale, seed)
		var plan optimizer.Plan
		var s *clusterStack
		setup, _, err := medianSetup(setupRuns, func() error {
			var err error
			if plan, err = experiments.PlanSimBench(cfg); err != nil {
				return err
			}
			s, err = newClusterStack(cfg, plan, audit.NewSampledLedger(cfg.AuditStride), false)
			return err
		})
		if err == nil {
			err = clusterWarmup(cfg, plan)
		}
		var r repResult
		if err == nil {
			r, err = timeRep(1, setup, s.serve)
		}
		if err != nil {
			return repResult{outcome: failed(err)}
		}
		r.outcome = s.outcome()
		return r
	}
}

func clusterWarmup(cfg experiments.SimBenchConfig, plan optimizer.Plan) error {
	cfg.Horizon *= warmupFrac
	s, err := newClusterStack(cfg, plan, audit.NewSampledLedger(cfg.AuditStride), false)
	if err != nil {
		return err
	}
	return s.serve()
}

func clusterTraced(rate float64) func(int64, float64) tracedResult {
	return func(seed int64, scale float64) tracedResult {
		r, c := tracedClusterRun(rate, seed, scale)
		for k, v := range goLayers(c, r.Requests) {
			r.Layers[k] = v
		}
		return r
	}
}

// tracedClusterRun runs a cluster-* rep on the traced path: its outcome,
// cost and data-plane layer metrics.
func tracedClusterRun(rate float64, seed int64, scale float64) (tracedResult, cost) {
	cfg := clusterConfig(rate, clusterHorizon*scale, seed)
	plan, err := experiments.PlanSimBench(cfg)
	if err == nil {
		err = clusterWarmup(cfg, plan)
	}
	var s *clusterStack
	if err == nil {
		s, err = newClusterStack(cfg, plan, audit.NewSampledLedger(cfg.AuditStride), true)
	}
	if err != nil {
		return tracedResult{outcome: failed(err), Layers: map[string]float64{}}, cost{}
	}
	var dp dataPlane
	c, _ := measure(func() error {
		dp = s.runTraced()
		return nil
	}, s)
	out := s.outcome()
	req := float64(out.Requests)
	// nsPer scales a wall-time total to the reference host, per unit.
	nsPer := func(ns, per float64) float64 { return ns / c.speed() / per }
	tr := s.runner
	timed := float64(dp.timed)
	return tracedResult{outcome: out, WallS: c.wall, Speed: c.speed(), Layers: map[string]float64{
		"sim.events_per_req":            float64(out.Events) / req,
		"sim.step_ns_per_event":         nsPer(float64(dp.loop), float64(out.Events)),
		"trace.next_ns_per_req":         nsPer(float64(dp.next), timed),
		"workload.gen_ns_per_req":       nsPer(float64(dp.gen), timed),
		"serving.arrive_ns_per_req":     nsPer(float64(dp.arrive-tr.nestedNs), timed),
		"serving.shed_frac":             float64(out.Requests-out.Completions) / req,
		"serving.mean_batch":            float64(tr.samples) / float64(tr.calls),
		"scheduler.ingest_ns_per_batch": nsPer(float64(tr.ns), float64(tr.timedCalls)),
		// Step time outside the benchmark's own arrival events, per request.
		"scheduler.event_ns_per_req": nsPer(float64(dp.loop)-float64(dp.arrivals)/timed*req, req),
	}}, c
}

// goLayers prices a measured run in Go runtime terms.
func goLayers(c cost, requests int) map[string]float64 {
	req := float64(requests)
	return map[string]float64{
		"go.allocs_per_req":      c.mallocs / req,
		"go.alloc_bytes_per_req": c.bytes / req,
		"go.gc_cpu_frac":         c.gcCPU / c.busyCPU,
		"go.live_heap_mb_end":    c.liveHeap / (1 << 20),
	}
}

// tracedCall is the traced run of a workload the benchmark drives only
// through one public call, which keeps `cores` cores busy: that call
// priced from outside, then the data-plane layer metrics from a traced
// cluster-overload run on the same seed, since this workload's own engine
// is out of reach.
func tracedCall(cores int, seed int64, scale float64, call func() (outcome, error), keep ...any) tracedResult {
	var out outcome
	c, err := measureOn(cores, func() (err error) {
		out, err = call()
		return err
	}, keep...)
	if err != nil {
		return tracedResult{outcome: failed(err), Layers: map[string]float64{}}
	}
	r := tracedResult{outcome: out, WallS: c.wall, Speed: c.speed(), Layers: goLayers(c, out.Requests)}
	probe, _ := tracedClusterRun(overloadRate, seed, scale)
	for k, v := range probe.Layers {
		r.Layers[k] = v
	}
	for _, f := range probe.Failures {
		r.fail("data-plane probe: %s", f)
	}
	return r
}

// ---- replan-observed ----

func replanWindowsFor(scale float64) int {
	return max(2, int(math.Round(replanWindows*scale)))
}

// replanConfig is the drifting demo with the first `observers` of tracer,
// attribution and flame profiler attached; replan-observed has all three.
func replanConfig(windows int, seed int64, observers int) replan.Config {
	cfg := replan.DriftingDemo(windows, forecast.MethodARIMA, nil)
	cfg.Seed = seed
	if observers > 0 {
		cfg.Tracer = telemetry.NewRing(4096)
	}
	if observers > 1 {
		cfg.Attr = slo.NewAttribution(slo.DefaultTopK)
	}
	if observers > 2 {
		cfg.Flame = flame.NewProfiler(0)
	}
	return cfg
}

// replanSetup is the planning replan.Run does before its first arrival:
// the shared cost table, then the window-0 search on the estimator's
// empty-history forecast.
func replanSetup(cfg replan.Config) error {
	ocfg := optimizer.Config{
		Model: cfg.Model, Batch: cfg.Batch, Cluster: cfg.Cluster,
		Profile: forecast.NewEstimator(cfg.Model.Base.NumLayers()).Predict(),
		SLO:     cfg.SLO, SlackFrac: slackFrac, MinExitFrac: optimizer.DefaultMinExitFrac,
		Pipelining: true, ModelParallel: true,
		Trace: &optimizer.SearchTrace{},
	}
	ocfg.Costs = optimizer.NewCostTableFor(ocfg)
	_, err := optimizer.MaximizeGoodput(ocfg)
	return err
}

// replanWarmup runs the loop for 1% of the windows (at least one).
func replanWarmup(windows int, seed int64) error {
	_, err := replan.Run(replanConfig(max(1, windows/100), seed, 3))
	return err
}

func replanRep(seed int64, scale float64) repResult {
	windows := replanWindowsFor(scale)
	var cfg replan.Config
	setup, _, err := medianSetup(setupRuns, func() error {
		cfg = replanConfig(windows, seed, 3)
		return replanSetup(cfg)
	})
	if err == nil {
		err = replanWarmup(windows, seed)
	}
	var res *replan.Result
	var r repResult
	if err == nil {
		r, err = timeRep(1, setup, func() (err error) {
			res, err = replan.Run(cfg)
			return err
		})
	}
	if err != nil {
		return repResult{outcome: failed(err)}
	}
	r.outcome = replanOutcome(cfg, res)
	return r
}

func replanTraced(seed int64, scale float64) tracedResult {
	windows := replanWindowsFor(scale)
	cfg := replanConfig(windows, seed, 3)
	err := replanSetup(cfg)
	if err == nil {
		err = replanWarmup(windows, seed)
	}
	if err != nil {
		return tracedResult{outcome: failed(err), Layers: map[string]float64{}}
	}
	var res *replan.Result
	return tracedCall(1, seed, scale, func() (outcome, error) {
		var err error
		if res, err = replan.Run(cfg); err != nil {
			return outcome{}, err
		}
		return replanOutcome(cfg, res), nil
	}, cfg, &res)
}

// replanOutcome reads a replan run's virtual results. Latency comes from
// the tracer's streaming histogram (replan.Result exposes no latency
// recorder), so its quantiles are interpolated within log buckets.
func replanOutcome(cfg replan.Config, res *replan.Result) outcome {
	served := 0
	for _, w := range res.Windows {
		served += w.Served
	}
	out := outcome{
		Requests: res.Report.Samples,
		Served:   served,
		Goodput:  float64(served) / (float64(cfg.Windows) * cfg.WindowDur),
		Digest:   digest(replanFingerprint(res)),
	}
	if h := cfg.Tracer.LatencyHist(); h != nil {
		out.Completions = int(h.Count())
		out.P50, out.P999 = h.Quantile(0.5), h.Quantile(0.999)
	}
	if !res.Report.OK() {
		out.fail("audit: %v", res.Report.Err())
	}
	if cfg.Flame != nil && !res.FlameStat.OK() {
		out.fail("flame reconcile: residual %d ns", res.FlameStat.Residual)
	}
	if n := cfg.Attr.Mismatches(); n != 0 {
		out.fail("attribution: %d mismatches", n)
	}
	return out
}

// replanFingerprint renders what a replan run did, window by window, and
// leaves out every observer's own output, so runs that differ only in
// which observers were attached render the same.
func replanFingerprint(res *replan.Result) string {
	var b strings.Builder
	for _, w := range res.Windows {
		fmt.Fprintf(&b, "w%d served=%d violations=%d dropped=%d replanned=%t changed=%t cached=%t drift=%v mae=%v\n",
			w.Window, w.Served, w.Violations, w.Dropped, w.Replanned, w.PlanChanged, w.PlanCacheHit, w.Drift, w.ForecastMAE)
	}
	fmt.Fprintf(&b, "replans=%d changes=%d hits=%d misses=%d\nplan %s\n",
		res.Replans, res.PlanChanges, res.PlanCacheHits, res.PlanCacheMisses, res.FinalPlan.String())
	fmt.Fprintf(&b, "samples=%d completed=%d dropped=%d\n", res.Report.Samples, res.Report.Completed, res.Report.Dropped)
	return b.String()
}

// ---- fleet-hetero ----

// fleetWorkers is two shard workers, or one on a single-core host.
func fleetWorkers() int { return min(2, runtime.NumCPU()) }

func fleetConfig(replicas, workers int, horizon float64, seed int64) fleet.Config {
	cfg := fleet.HeteroConfig(replicas, workers)
	cfg.Horizon, cfg.Seed = horizon, seed
	return cfg
}

func fleetWarmup(cfg fleet.Config) error {
	cfg.Horizon *= warmupFrac
	_, err := fleet.Run(cfg)
	return err
}

func fleetRep(seed int64, scale float64) repResult {
	var cfg fleet.Config
	setup, setupCPU, err := medianSetup(setupRuns, func() error {
		cfg = fleetConfig(4, fleetWorkers(), fleetHorizon*scale, seed)
		_, err := fleet.New(cfg)
		return err
	})
	if err == nil {
		err = fleetWarmup(cfg)
	}
	var res *fleet.Result
	var r repResult
	if err == nil {
		r, err = timeRep(fleetWorkers(), setup, func() (err error) {
			res, err = fleet.Run(cfg)
			return err
		})
	}
	if err != nil {
		return repResult{outcome: failed(err)}
	}
	// fleet.Run starts with the fleet.New that setup_s prices; the timed
	// region is the rest.
	r.outcome = fleetOutcome(cfg, res)
	r.WallS -= setup
	r.CPUS -= setupCPU
	return r
}

func fleetTraced(seed int64, scale float64) tracedResult {
	cfg := fleetConfig(4, fleetWorkers(), fleetHorizon*scale, seed)
	err := fleetWarmup(cfg)
	var newS float64
	if err == nil {
		t0 := time.Now()
		_, err = fleet.New(cfg)
		newS = time.Since(t0).Seconds()
	}
	if err != nil {
		return tracedResult{outcome: failed(err), Layers: map[string]float64{}}
	}
	var res *fleet.Result
	r := tracedCall(fleetWorkers(), seed, scale, func() (outcome, error) {
		var err error
		if res, err = fleet.Run(cfg); err != nil {
			return outcome{}, err
		}
		return fleetOutcome(cfg, res), nil
	}, &res)
	r.WallS -= newS
	return r
}

// fleetOutcome reads a fleet run's virtual results. Latency comes from the
// sampled ledgers' tracked requests (every AuditStride-th per stack), read
// out of Result.Digests(): fleet.Result exposes no latency recorder.
func fleetOutcome(cfg fleet.Config, res *fleet.Result) outcome {
	d := res.Digests()
	var lat metrics.LatencyRecorder
	for _, l := range ledgerLatencies(d) {
		lat.Observe(l)
	}
	out := outcome{
		Requests:    res.Minted,
		Served:      res.Served,
		Completions: lat.Count(),
		Goodput:     float64(res.Served) / cfg.Horizon,
		P50:         lat.Quantile(0.5),
		P999:        lat.Quantile(0.999),
		Events:      res.Events,
		Digest:      digest(d),
	}
	if err := res.Verify(); err != nil {
		out.fail("fleet verify: %v", err)
	}
	return out
}

// ledgerLatencies reads completion latencies out of ledger digests. Each
// tracked request has a line "<id>: kind@time ...", so a completed one's
// latency is its completed@ time minus its arrived@ time.
func ledgerLatencies(d string) []float64 {
	var out []float64
	for _, line := range strings.Split(d, "\n") {
		colon := strings.IndexByte(line, ':')
		if colon <= 0 {
			continue
		}
		if _, err := strconv.ParseInt(line[:colon], 10, 64); err != nil {
			continue
		}
		arrived, ok1 := eventTime(line, " arrived@")
		done, ok2 := eventTime(line, " completed@")
		if ok1 && ok2 {
			out = append(out, done-arrived)
		}
	}
	return out
}

func eventTime(line, key string) (float64, bool) {
	i := strings.Index(line, key)
	if i < 0 {
		return 0, false
	}
	rest := line[i+len(key):]
	if end := strings.IndexAny(rest, " ("); end >= 0 {
		rest = rest[:end]
	}
	v, err := strconv.ParseFloat(rest, 64)
	return v, err == nil
}
