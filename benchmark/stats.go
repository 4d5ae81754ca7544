package main

import "sort"

// metricSpec names one reported metric. BENCHMARK.json lists the same
// names, units and directions (the spec test holds them equal) and adds
// each end-to-end metric's bound.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the simulator sees, one value per
// rep. Host metrics describe the simulator; virtual ones the simulated
// system.
var endToEnd = []metricSpec{
	{"wall_req_per_s", "1/s", "higher"},
	{"cpu_s_per_mreq", "s/Mreq", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
	{"goodput_req_per_s", "1/s", "higher"},
	{"slo_attain_frac", "frac", "higher"},
	{"p50_latency_ms", "ms", "lower"},
	{"p999_latency_ms", "ms", "lower"},
}

// endToEndValues derives one rep's end-to-end metrics. Host times are
// scaled to the reference host by the speed index taken around them
// (setup ran just before the timed region). A rep that failed any check
// attains nothing, and its other numbers mean nothing.
func endToEndValues(r repResult) map[string]float64 {
	if len(r.Failures) > 0 {
		return map[string]float64{"slo_attain_frac": 0}
	}
	req := float64(r.Requests)
	return map[string]float64{
		"wall_req_per_s":    req / (r.WallS / r.speed()),
		"cpu_s_per_mreq":    r.CPUS / r.speed() / req * 1e6,
		"peak_rss_mb":       r.PeakRSSMB,
		"setup_s":           r.SetupS / r.SpeedBefore,
		"goodput_req_per_s": r.Goodput,
		"slo_attain_frac":   float64(r.Served) / req,
		"p50_latency_ms":    r.P50 * 1e3,
		"p999_latency_ms":   r.P999 * 1e3,
	}
}

// perLayer are the traced run's metrics, grouped by the module they price.
var perLayer = []metricSpec{
	{"sim.events_per_req", "count", "lower"},
	{"sim.churn_ns_per_event", "ns", "lower"},
	{"sim.step_ns_per_event", "ns", "lower"},
	{"trace.next_ns_per_req", "ns", "lower"},
	{"workload.gen_ns_per_req", "ns", "lower"},
	{"serving.arrive_ns_per_req", "ns", "lower"},
	{"serving.shed_frac", "frac", "lower"},
	{"serving.mean_batch", "count", "higher"},
	{"scheduler.ingest_ns_per_batch", "ns", "lower"},
	{"scheduler.event_ns_per_req", "ns", "lower"},
	{"go.allocs_per_req", "count", "lower"},
	{"go.alloc_bytes_per_req", "B", "lower"},
	{"go.gc_cpu_frac", "frac", "lower"},
	{"go.live_heap_mb_end", "MB", "lower"},
	{"audit.sampled_ns_per_req", "ns", "lower"},
	{"audit.exhaustive_ns_per_req", "ns", "lower"},
	{"audit.exhaustive_bytes_per_req", "B", "lower"},
	{"telemetry.ns_per_req", "ns", "lower"},
	{"telemetry.allocs_per_req", "count", "lower"},
	{"slo.attr_ns_per_req", "ns", "lower"},
	{"slo.attr_allocs_per_req", "count", "lower"},
	{"flame.ns_per_req", "ns", "lower"},
	{"flame.allocs_per_req", "count", "lower"},
	{"optimizer.cost_table_ms", "ms", "lower"},
	{"optimizer.plan_ms", "ms", "lower"},
	{"replan.replans", "count", "lower"},
	{"replan.plan_cache_hits", "count", "higher"},
	{"replan.plan_share", "frac", "lower"},
	{"multi.plan_ms", "ms", "lower"},
	{"fleet.new_ms", "ms", "lower"},
	{"fleet.speedup", "ratio", "higher"},
	{"fleet.shard_ns_per_req", "ns", "lower"},
	{"fleet.coord_ns_per_req", "ns", "lower"},
	{"fleet.epochs", "count", "lower"},
	{"fleet.door_shed_frac", "frac", "lower"},
	{"fleet.events_per_req", "count", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (its default "exclusive" method), so the
// spreads printed here are the ones a script recomputes from the values.
// The middle one is the median.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
