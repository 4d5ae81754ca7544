package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"e3/internal/bench"
	"e3/internal/fleet"
)

// fleetPoint is one shard count on the scaling curve, timed on Workers =
// min(shards, cores) workers: EventsPerS is the median of its fleetPairs
// timed runs, and WallS the wall time at that rate.
type fleetPoint struct {
	Shards     int     `json:"shards"`
	Workers    int     `json:"workers"`
	Minted     int     `json:"minted"`
	Served     int     `json:"served"`
	DoorShed   int     `json:"door_shed"`
	Events     uint64  `json:"events"`
	WallS      float64 `json:"wall_s"`
	EventsPerS float64 `json:"events_per_sec"`
	// AllocBytesPerRequest is what the last timed k-shard run allocated
	// (the runtime's TotalAlloc delta, fleet.New's planning included)
	// per minted request: the fleet's memory cost per request. It is
	// measured, not gated.
	AllocBytesPerRequest float64 `json:"alloc_bytes_per_request"`
	// The process's memory after the point's last timed run, inline (the
	// peak is the process's so far); absent where /proc does not report
	// it. It is measured, not gated.
	*procMemory
	// ScalingX is the median, over fleetPairs alternating pairs, of this
	// point's aggregate events/s over a 1-shard run's; null on one core,
	// where no speedup is possible.
	ScalingX *float64 `json:"scaling_x"`
	// DigestOK confirms a run at one worker per shard, and every timed
	// run, reproduced the serial reference (workers=1, shards in index
	// order) byte-for-byte: every per-shard ledger digest and the router
	// decision log.
	DigestOK bool `json:"parallel_equals_serial"`
}

// fleetBenchReport is the machine-readable -fleet-bench payload
// (BENCH_PR10.json).
type fleetBenchReport struct {
	Note       string       `json:"note"`
	GoMaxProcs int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	HorizonS   float64      `json:"horizon_virtual_s"`
	EpochDurS  float64      `json:"epoch_dur_s"`
	Tenants    []string     `json:"tenants"`
	Curve      []fleetPoint `json:"curve"`
	// DeterminismOK is the AND of every point's DigestOK.
	DeterminismOK bool `json:"determinism_parallel_equals_serial"`
	// ScalingAt8 is the 8-shard point's ScalingX, ScalingBar the fleet
	// gate's bar on it for the cores present (0 on one core, where the
	// scaling goes unmeasured), and Pass the gate's verdict: every digest
	// held and the scaling met its bar.
	ScalingAt8 *float64 `json:"scaling_at_8_shards"`
	ScalingBar float64  `json:"scaling_bar_at_8_shards"`
	Pass       bool     `json:"pass"`
}

// fleetScalingBars is the fleet gate's bar on the 8-shard scaling by the
// cores the process can run on: the first row whose cores the host has
// sets it.
var fleetScalingBars = []struct {
	cores int
	x     float64
}{{8, 4}, {4, 2}, {2, 1.2}}

// fleetScalingBar is the 8-shard scaling bar on a host with cores cores,
// or 0 on one core, where the scaling goes unmeasured and the gate rests
// on its digests alone.
func fleetScalingBar(cores int) float64 {
	for _, b := range fleetScalingBars {
		if cores >= b.cores {
			return b.x
		}
	}
	return 0
}

// runFleetOnce executes one fleet configuration and prints its summary.
func runFleetOnce(shards, workers int) error {
	cfg := fleet.DemoConfig(shards, workers)
	start := time.Now()
	res, err := fleet.Run(cfg)
	wall := time.Since(start).Seconds()
	if err != nil {
		return err
	}
	fmt.Printf("fleet: %d shard(s) x %d worker(s), %d epochs over %gs virtual\n",
		shards, workers, res.Epochs, cfg.Horizon)
	fmt.Printf("%-8s %-14s %-10s %-10s %-10s %-10s %s\n",
		"replica", "gpus", "routed", "served", "violated", "dropped", "events")
	for _, sr := range res.Shards {
		routed, served, violated, dropped := 0, 0, 0, 0
		for _, tr := range sr.Tenants {
			routed += tr.Routed
			served += tr.Served
			violated += tr.Violations
			dropped += tr.Dropped
		}
		fmt.Printf("%-8d %-14s %-10d %-10d %-10d %-10d %d\n",
			sr.Index, sr.GPUs, routed, served, violated, dropped, sr.Events)
	}
	fmt.Printf("\nfront door: %d minted = %d routed + %d shed; %d events in %.2fs wall (%.0f events/s)\n",
		res.Minted, res.Routed, res.DoorShed, res.Events, wall, float64(res.Events)/wall)
	return nil
}

// fleetPairs is how many alternating 1-shard/k-shard pairs time each
// curve point; the point reports the median ratio.
const fleetPairs = 9

// fleetTimedRun times one fleet run from a collected heap, so the
// previous run's garbage stays out of its wall time, checks its digests
// against the serial reference ref, and returns its aggregate events/s
// and the bytes it allocated per minted request.
func fleetTimedRun(shards, workers int, ref *fleet.Result) (eps, allocPerReq float64, err error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc
	start := time.Now()
	res, err := fleet.Run(fleet.DemoConfig(shards, workers))
	wall := time.Since(start).Seconds()
	if err != nil {
		return 0, 0, err
	}
	runtime.ReadMemStats(&ms)
	if res.Digests() != ref.Digests() {
		return 0, 0, fmt.Errorf("%d shards x %d workers: parallel run diverged from its serial reference — determinism violation", shards, workers)
	}
	return float64(res.Events) / wall, float64(ms.TotalAlloc-alloc) / float64(res.Minted), nil
}

// runFleetBench measures the 1/2/4/8-shard scaling curve, each point
// checked byte-identical against its serial reference, writes
// BENCH_PR10.json and fails if the fleet gate does. Each point times
// fleetPairs alternating pairs of a 1-shard run and a k-shard run on
// min(k, cores) workers, since more workers than cores only add
// switching; the two sides alternate so drift in the host's speed reaches
// both.
func runFleetBench(outPath string) error {
	rep := fleetBenchReport{
		Note: "fleet tier: sharded parallel simulation with GPU-aware routing; " +
			"aggregate events/s across N replica shards on min(N, cores) workers, median ratio " +
			"to 1 shard over 9 alternating pairs, with every run checked byte-identical " +
			"against its serial reference; scaling is null on one core",
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		DeterminismOK: true,
	}
	cores := min(rep.GoMaxProcs, rep.NumCPU)
	rep.ScalingBar = fleetScalingBar(cores)
	probe := fleet.DemoConfig(1, 1)
	rep.HorizonS, rep.EpochDurS = probe.Horizon, probe.EpochDur
	for _, t := range probe.Tenants {
		rep.Tenants = append(rep.Tenants, t.Name)
	}

	var one *fleet.Result // the 1-shard serial reference
	for _, shards := range []int{1, 2, 4, 8} {
		ref, err := fleet.Run(fleet.DemoConfig(shards, 1))
		if err != nil {
			return err
		}
		if shards == 1 {
			one = ref
		}
		par, err := fleet.Run(fleet.DemoConfig(shards, shards))
		if err != nil {
			return err
		}
		workers := min(shards, cores)
		// Untimed warm-up of the k-shard side, then the pairs.
		if _, _, err := fleetTimedRun(shards, workers, ref); err != nil {
			return err
		}
		eps := make([]float64, fleetPairs)
		ratios := make([]float64, fleetPairs)
		alloc := 0.0 // the last timed k-shard run's bytes per request
		for i := range eps {
			base, _, err := fleetTimedRun(1, 1, one)
			if err != nil {
				return err
			}
			if eps[i], alloc, err = fleetTimedRun(shards, workers, ref); err != nil {
				return err
			}
			ratios[i] = eps[i] / base
		}
		slices.Sort(eps)
		slices.Sort(ratios)
		pt := fleetPoint{
			Shards:               shards,
			Workers:              workers,
			Minted:               ref.Minted,
			Served:               ref.Served,
			DoorShed:             ref.DoorShed,
			Events:               ref.Events,
			WallS:                float64(ref.Events) / eps[fleetPairs/2],
			EventsPerS:           eps[fleetPairs/2],
			DigestOK:             par.Digests() == ref.Digests(),
			AllocBytesPerRequest: alloc,
			procMemory:           readProcMemory(),
		}
		scaling := "unmeasured on one core"
		if rep.ScalingBar > 0 {
			x := ratios[fleetPairs/2]
			pt.ScalingX = &x
			scaling = fmt.Sprintf("%.2fx", x)
		}
		rep.DeterminismOK = rep.DeterminismOK && pt.DigestOK
		rep.Curve = append(rep.Curve, pt)
		fmt.Printf("fleet-bench: %d shards x %d workers — %d events in %.3fs wall (%.0f events/s, scaling %s, %.0f B allocated/request, peak RSS %s), parallel==serial: %v\n",
			pt.Shards, pt.Workers, pt.Events, pt.WallS, pt.EventsPerS, scaling, pt.AllocBytesPerRequest, memoryLine(pt.procMemory), pt.DigestOK)
		if shards == 8 {
			rep.ScalingAt8 = pt.ScalingX
		}
	}
	rep.Pass = rep.DeterminismOK && (rep.ScalingAt8 == nil || *rep.ScalingAt8 >= rep.ScalingBar)

	metrics := map[string]float64{
		"events_per_sec_1": rep.Curve[0].EventsPerS,
		"events_per_sec_8": rep.Curve[len(rep.Curve)-1].EventsPerS,
	}
	at8, bar := "unmeasured on one core", "none; the digests alone gate"
	if rep.ScalingAt8 != nil {
		metrics["scaling_at_8_shards"] = *rep.ScalingAt8
		at8, bar = fmt.Sprintf("%.2fx", *rep.ScalingAt8), fmt.Sprintf(">= %gx", rep.ScalingBar)
	}
	env, err := bench.Wrap("fleet-bench", probe.Seed,
		&bench.TraceParams{HorizonS: rep.HorizonS}, metrics, rep)
	if err == nil {
		err = bench.WriteFile(outPath, env)
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	fmt.Printf("fleet gate: scaling at 8 shards %s (bar %s on %d cores), parallel==serial: %v; pass=%v\n",
		at8, bar, cores, rep.DeterminismOK, rep.Pass)
	if !rep.DeterminismOK {
		return errors.New("a parallel fleet run diverged from its serial reference — determinism violation")
	}
	if !rep.Pass {
		return fmt.Errorf("fleet scaling %.2fx below the %gx bar for %d cores", *rep.ScalingAt8, rep.ScalingBar, cores)
	}
	return nil
}
