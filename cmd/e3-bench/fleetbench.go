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

// fleetPoint is one shard count on the scaling curve. WallS is the median
// of fleetBenchRuns timed parallel runs.
type fleetPoint struct {
	Shards     int     `json:"shards"`
	Workers    int     `json:"workers"`
	Minted     int     `json:"minted"`
	Served     int     `json:"served"`
	DoorShed   int     `json:"door_shed"`
	Events     uint64  `json:"events"`
	WallS      float64 `json:"wall_s"`
	EventsPerS float64 `json:"events_per_sec"`
	// ScalingX is this point's aggregate events/s over the 1-shard
	// point's; null when the point ran more workers than the host has
	// cores, where the ratio would measure the scheduler, not scaling.
	ScalingX *float64 `json:"scaling_x"`
	// DigestOK confirms every parallel run reproduced the serial reference
	// (workers=1, shards in index order) byte-for-byte: every per-shard
	// ledger digest and the router decision log.
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
	// ScalingAt8 is the 8-shard point's ScalingX: the ≥4x headline on a
	// host with 8 or more cores, null (unmeasured) on a smaller one.
	ScalingAt8 *float64 `json:"scaling_at_8_shards"`
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

// fleetBenchRuns is how many timed parallel runs each curve point takes;
// the point reports the median wall time.
const fleetBenchRuns = 5

// runFleetBench measures the 1/2/4/8-shard scaling curve with a
// parallel-vs-serial digest check on every run and writes
// BENCH_PR10.json. A point whose workers exceed the cores the process
// can run on keeps its digest check and events/s but reports its
// scaling as unmeasured.
func runFleetBench(outPath string) error {
	rep := fleetBenchReport{
		Note: "fleet tier: sharded parallel simulation with GPU-aware routing; " +
			"aggregate events/s across N replica shards at N workers, with every " +
			"parallel run checked byte-identical against its serial reference; " +
			"scaling is null where the workers exceed the cores",
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		DeterminismOK: true,
	}
	cores := min(rep.GoMaxProcs, rep.NumCPU)
	probe := fleet.DemoConfig(1, 1)
	rep.HorizonS, rep.EpochDurS = probe.Horizon, probe.EpochDur
	for _, t := range probe.Tenants {
		rep.Tenants = append(rep.Tenants, t.Name)
	}

	base := 0.0
	for _, shards := range []int{1, 2, 4, 8} {
		// Serial reference first: digests to compare against, run cold so
		// the timed parallel run below owns its own caches.
		ref, err := fleet.Run(fleet.DemoConfig(shards, 1))
		if err != nil {
			return err
		}
		cfg := fleet.DemoConfig(shards, shards)
		var res *fleet.Result
		walls := make([]float64, fleetBenchRuns)
		digestOK := true
		for i := range walls {
			start := time.Now()
			res, err = fleet.Run(cfg)
			walls[i] = time.Since(start).Seconds()
			if err != nil {
				return err
			}
			digestOK = digestOK && res.Digests() == ref.Digests()
		}
		slices.Sort(walls)
		wall := walls[len(walls)/2]
		pt := fleetPoint{
			Shards:     shards,
			Workers:    cfg.Workers,
			Minted:     res.Minted,
			Served:     res.Served,
			DoorShed:   res.DoorShed,
			Events:     res.Events,
			WallS:      wall,
			EventsPerS: float64(res.Events) / wall,
			DigestOK:   digestOK,
		}
		if shards == 1 {
			base = pt.EventsPerS
		}
		scaling := "unmeasured"
		if base > 0 && pt.Workers <= cores {
			x := pt.EventsPerS / base
			pt.ScalingX = &x
			scaling = fmt.Sprintf("%.2fx", x)
		}
		rep.DeterminismOK = rep.DeterminismOK && pt.DigestOK
		rep.Curve = append(rep.Curve, pt)
		fmt.Printf("fleet-bench: %d shards x %d workers — %d events in %.2fs wall (%.0f events/s, scaling %s), parallel==serial: %v\n",
			pt.Shards, pt.Workers, pt.Events, pt.WallS, pt.EventsPerS, scaling, pt.DigestOK)
		if shards == 8 {
			rep.ScalingAt8 = pt.ScalingX
		}
	}
	if !rep.DeterminismOK {
		return errors.New("a parallel fleet run diverged from its serial reference — determinism violation")
	}

	metrics := map[string]float64{
		"events_per_sec_1": rep.Curve[0].EventsPerS,
		"events_per_sec_8": rep.Curve[len(rep.Curve)-1].EventsPerS,
	}
	at8 := "unmeasured"
	if rep.ScalingAt8 != nil {
		metrics["scaling_at_8_shards"] = *rep.ScalingAt8
		at8 = fmt.Sprintf("%.2fx", *rep.ScalingAt8)
	}
	env, err := bench.Wrap("fleet-bench", probe.Seed,
		&bench.TraceParams{HorizonS: rep.HorizonS}, metrics, rep)
	if err == nil {
		err = bench.WriteFile(outPath, env)
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (scaling at 8 shards: %s on GOMAXPROCS=%d, %d CPUs)\n", outPath, at8, rep.GoMaxProcs, rep.NumCPU)
	return nil
}
