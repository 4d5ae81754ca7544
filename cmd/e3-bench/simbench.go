package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"e3/internal/bench"
	"e3/internal/experiments"
	"e3/internal/sim"
)

// simTraceStats is the paper-scale end-to-end measurement: the full
// serving stack (generator → batcher → pipeline → collector, sampled
// ledger attached) consuming a 9000 req/s × 1 h Poisson trace.
type simTraceStats struct {
	Rate        float64 `json:"rate_req_per_s"`
	HorizonS    float64 `json:"horizon_s"`
	Requests    int     `json:"requests"`
	Events      uint64  `json:"events"`
	WallS       float64 `json:"wall_s"`
	EventsPerS  float64 `json:"events_per_sec"`
	AllocsPerEv float64 `json:"allocs_per_event"`
	Completed   int     `json:"completed"`
	Dropped     int     `json:"dropped"`
	Goodput     float64 `json:"goodput_req_per_s"`
	AuditStride int64   `json:"audit_stride"`
	AuditOK     bool    `json:"audit_ok"`
	// PeakRSSMB is the process's peak resident set (VmHWM) in MiB after
	// the trace, or 0 where /proc does not report it.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// simEngineStats compares the index-based value heap against the retained
// pointer-heap reference on a pure push/pop churn loop.
type simEngineStats struct {
	Events            uint64  `json:"events"`
	ReferenceNsPerEv  float64 `json:"reference_ns_per_event"`
	FastNsPerEv       float64 `json:"fast_ns_per_event"`
	ReferenceAllocsEv float64 `json:"reference_allocs_per_event"`
	FastAllocsEv      float64 `json:"fast_allocs_per_event"`
	Speedup           float64 `json:"speedup"`
}

// simBenchReport is the machine-readable -sim-bench payload
// (BENCH_PR6.json).
type simBenchReport struct {
	Note       string         `json:"note"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Trace      simTraceStats  `json:"trace"`
	Engine     simEngineStats `json:"engine"`

	// FloorEventsPerS is the sim gate's bar on Trace.EventsPerS, and Pass
	// its verdict: the hour ran at or above the floor and its audit held.
	FloorEventsPerS float64 `json:"events_per_sec_floor"`
	Pass            bool    `json:"pass"`

	// Baseline pins the pre-fast-path numbers this report is compared
	// against (measured on the same 9000 req/s workload before the PR).
	BaselineEventsPerS  float64 `json:"baseline_events_per_sec"`
	BaselineAllocsPerEv float64 `json:"baseline_allocs_per_event"`
	SpeedupVsBaseline   float64 `json:"speedup_vs_baseline"`
}

// simFloorEventsPerS is the sim gate's floor on the paper-scale hour's
// events/s through the full serving stack: over 6x the pre-fast-path data
// plane (155k events/s), with headroom below what the fast path measures
// so slower hosts do not flake.
const simFloorEventsPerS = 1_000_000

// simPass is the sim gate's verdict on the hour's events/s.
func simPass(eventsPerS float64) bool { return eventsPerS >= simFloorEventsPerS }

// peakRSSMB is this process's peak resident set (VmHWM) in MiB, or 0 if
// /proc does not report it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// mallocs reads the cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// simEngineAPI is the surface the churn micro-benchmark needs; both heap
// implementations satisfy it.
type simEngineAPI interface {
	After(d float64, fn func())
	Step() bool
}

// churn drives n self-rescheduling events through an engine, returning
// ns/event and allocs/event.
func churn(eng simEngineAPI, n uint64) (nsPerEv, allocsPerEv float64) {
	var processed uint64
	var tick func()
	tick = func() {
		processed++
		if processed+1024 <= n {
			// Pseudo-random-ish but deterministic delays exercise sift paths.
			eng.After(float64(processed%97)*1e-4+1e-6, tick)
		}
	}
	for i := 0; i < 1024; i++ {
		eng.After(float64(i%89)*1e-4, tick)
	}
	m0 := mallocs()
	start := time.Now()
	for eng.Step() {
	}
	wall := time.Since(start)
	dm := mallocs() - m0
	return float64(wall.Nanoseconds()) / float64(processed), float64(dm) / float64(processed)
}

// runSimBench measures the data-plane fast path, writes BENCH_PR6.json
// and fails if the hour's audit or the sim gate's floor does.
func runSimBench(outPath string) error {
	rep := simBenchReport{
		Note: "data-plane fast path: value-heap engine, pooled batches, grouped " +
			"completion events, sampled conservation audit; baseline measured pre-PR " +
			"on the same workload",
		GoMaxProcs:          runtime.GOMAXPROCS(0),
		FloorEventsPerS:     simFloorEventsPerS,
		BaselineEventsPerS:  155_259,
		BaselineAllocsPerEv: 4.78,
	}

	// Engine micro: pure heap churn, fast vs reference.
	const microEvents = 2_000_000
	refNs, refAllocs := churn(sim.NewReferenceEngine(), microEvents)
	fastNs, fastAllocs := churn(sim.NewEngine(), microEvents)
	rep.Engine = simEngineStats{
		Events:            microEvents,
		ReferenceNsPerEv:  refNs,
		FastNsPerEv:       fastNs,
		ReferenceAllocsEv: refAllocs,
		FastAllocsEv:      fastAllocs,
		Speedup:           refNs / fastNs,
	}
	fmt.Printf("engine churn: reference %.1f ns/event (%.2f allocs), fast %.1f ns/event (%.2f allocs), %.1fx\n",
		refNs, refAllocs, fastNs, fastAllocs, rep.Engine.Speedup)

	// Paper-scale trace: 9000 req/s for a virtual hour, timed end to end
	// with planning outside the timed region.
	cfg := experiments.DefaultSimBench()
	plan, err := experiments.PlanSimBench(cfg)
	if err != nil {
		return err
	}
	cfg.Plan = &plan
	m0 := mallocs()
	start := time.Now()
	res, err := experiments.RunSimBench(cfg)
	wall := time.Since(start).Seconds()
	dm := mallocs() - m0
	if err != nil {
		return err
	}
	rep.Trace = simTraceStats{
		Rate:        cfg.Rate,
		HorizonS:    cfg.Horizon,
		Requests:    res.Requests,
		Events:      res.Events,
		WallS:       wall,
		EventsPerS:  float64(res.Events) / wall,
		AllocsPerEv: float64(dm) / float64(res.Events),
		Completed:   res.Completed,
		Dropped:     res.Dropped,
		Goodput:     res.Goodput,
		AuditStride: cfg.AuditStride,
		AuditOK:     res.AuditOK,
		PeakRSSMB:   peakRSSMB(),
	}
	rep.SpeedupVsBaseline = rep.Trace.EventsPerS / rep.BaselineEventsPerS
	rep.Pass = res.AuditOK && simPass(rep.Trace.EventsPerS)
	fmt.Printf("trace: %d requests, %d events in %.2fs wall — %.0f events/s (%.2f allocs/event), %.1fx the pre-PR baseline, peak RSS %.0f MiB, audit ok=%v\n",
		res.Requests, res.Events, wall, rep.Trace.EventsPerS, rep.Trace.AllocsPerEv, rep.SpeedupVsBaseline, rep.Trace.PeakRSSMB, res.AuditOK)

	env, err := bench.Wrap("sim-bench", 0,
		&bench.TraceParams{HorizonS: rep.Trace.HorizonS, AvgRate: rep.Trace.Rate},
		map[string]float64{
			"events_per_sec":      rep.Trace.EventsPerS,
			"allocs_per_event":    rep.Trace.AllocsPerEv,
			"speedup_vs_baseline": rep.SpeedupVsBaseline,
		}, rep)
	if err == nil {
		err = bench.WriteFile(outPath, env)
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	fmt.Printf("sim gate: %.0f events/s (bar >= %d events/s, audit ok): pass=%v\n",
		rep.Trace.EventsPerS, simFloorEventsPerS, rep.Pass)
	if !res.AuditOK {
		return fmt.Errorf("conservation audit failed: %v", res.Report.Violations)
	}
	if !rep.Pass {
		return fmt.Errorf("data plane sustained %.0f events/s, below the %d events/s floor", rep.Trace.EventsPerS, simFloorEventsPerS)
	}
	return nil
}
