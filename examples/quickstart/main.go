// Quickstart: plan and serve an early-exit BERT on a small simulated
// cluster, then compare E3 against the vanilla and naive-EE baselines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/workload"
)

func main() {
	// A 12-layer BERT with DeeBERT-style entropy ramps after every layer.
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	// Eight V100s, two per machine, 10G Ethernet between machines.
	clus := cluster.Homogeneous(gpu.V100, 8)

	// Profile the expected workload (80% easy inputs) and plan.
	prof := profile.Offline(m, workload.Mix(0.8))
	plan, err := optimizer.MaximizeGoodput(optimizer.NewConfig(m, prof, 8, clus, 0.100))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plan:", plan)

	// Virtual time: the whole run below takes milliseconds of real time.
	eng := sim.NewEngine()
	c := scheduler.NewCollector(m.Base.NumLayers(), 0.100, 0)
	pipe, err := scheduler.NewPipeline(eng, clus, m, plan, c)
	if err != nil {
		log.Fatal(err)
	}

	// Serve 2,000 batches, closed loop.
	gen := workload.NewGenerator(workload.Mix(0.8), 1)
	interval := 8 / plan.Goodput
	for i := 0; i < 2000; i++ {
		at := float64(i) * interval
		eng.At(at, func() { pipe.Ingest(gen.Batch(8, eng.Now(), 0.100)) })
	}
	if err := serving.Drain(eng, nil, pipe); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("E3:        %.0f samples/s goodput, %s\n", c.Good.Goodput(), c.Lat.Summarize())

	// The same load through the naive EE baseline (eager per-ramp exits).
	engB := sim.NewEngine()
	collB := scheduler.NewCollector(m.Base.NumLayers(), 0.100, 0)
	devs := make([]int, clus.Size())
	for i := range devs {
		devs[i] = i
	}
	dp, err := scheduler.NewDataParallel(engB, clus, m, devs, collB)
	if err != nil {
		log.Fatal(err)
	}
	genB := workload.NewGenerator(workload.Mix(0.8), 1)
	for i := 0; i < 2000; i++ {
		at := float64(i) * interval
		engB.At(at, func() { dp.Ingest(genB.Batch(8, engB.Now(), 0.100)) })
	}
	if err := engB.RunAll(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("naive EE:  %.0f samples/s goodput, %.1f%% SLO violations\n",
		collB.Good.Goodput(),
		100*float64(collB.Violations)/float64(collB.Violations+collB.Good.Served))
}
