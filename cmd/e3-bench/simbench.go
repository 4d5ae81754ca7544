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
	// LatencyBytesPerCompletion is what the latency recorder keeps per
	// completion at the end of the trace: its share of the memory below.
	LatencyBytesPerCompletion float64 `json:"latency_bytes_per_completion"`
	// The process's memory at the end of the trace, inline (so the peak
	// stays at trace.peak_rss_mb); absent where /proc does not report it.
	*procMemory
}

// simEngineStats compares the engine's inline value queue against the retained
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

// procMemory is this process's memory as /proc/self/status reports it,
// in MiB: the peak resident set (VmHWM) and the current resident set's
// anonymous part (heap, stacks) and file-backed part (mostly the
// executable's pages), so a memory claim can name the kind that moved.
// It is measured, not gated.
type procMemory struct {
	PeakRSSMB float64 `json:"peak_rss_mb"`
	RssAnonMB float64 `json:"rss_anon_mb"`
	RssFileMB float64 `json:"rss_file_mb"`
}

// readProcMemory reads procMemory, or returns nil where /proc does not
// report all three fields (off Linux).
func readProcMemory() *procMemory {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return nil
	}
	defer f.Close()
	var m procMemory
	fields := map[string]*float64{"VmHWM:": &m.PeakRSSMB, "RssAnon:": &m.RssAnonMB, "RssFile:": &m.RssFileMB}
	found := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, rest, _ := strings.Cut(sc.Text(), "\t")
		dst := fields[key]
		if dst == nil {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return nil
		}
		*dst = kb / 1024
		found++
	}
	if found != len(fields) {
		return nil
	}
	return &m
}

// memoryLine renders m for a report's summary line; "n/a" when m is nil.
func memoryLine(m *procMemory) string {
	if m == nil {
		return "n/a"
	}
	return fmt.Sprintf("%.1f MiB (RssAnon %.1f, RssFile %.1f)", m.PeakRSSMB, m.RssAnonMB, m.RssFileMB)
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

		LatencyBytesPerCompletion: float64(res.LatencyBytes) / float64(max(1, res.Completed)),
		procMemory:                readProcMemory(),
	}
	rep.SpeedupVsBaseline = rep.Trace.EventsPerS / rep.BaselineEventsPerS
	rep.Pass = res.AuditOK && simPass(rep.Trace.EventsPerS)
	fmt.Printf("trace: %d requests, %d events in %.2fs wall — %.0f events/s (%.2f allocs/event), %.1fx the pre-PR baseline, peak RSS %s, latencies %.2f B/completion, audit ok=%v\n",
		res.Requests, res.Events, wall, rep.Trace.EventsPerS, rep.Trace.AllocsPerEv, rep.SpeedupVsBaseline, memoryLine(rep.Trace.procMemory),
		rep.Trace.LatencyBytesPerCompletion, res.AuditOK)

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
