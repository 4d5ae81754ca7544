// bursty-trace replays a Twitter-like open-loop trace (§5.7) through E3
// with dynamic batching, SLA-pressure dispatch, and admission control, and
// reports goodput, latency, and GPU utilization.
//
//	go run ./examples/bursty-trace
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
	"e3/internal/trace"
	"e3/internal/workload"
)

func main() {
	const (
		avgRate = 1000.0
		horizon = 120.0
		batch   = 8
		slo     = 0.100
	)
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	clus := cluster.Homogeneous(gpu.V100, 16)

	prof := profile.Offline(m, workload.Mix(0.8))
	plan, err := optimizer.MaximizeGoodput(optimizer.NewConfig(m, prof, batch, clus, slo))
	if err != nil {
		log.Fatal(err)
	}

	arr := trace.Bursty(trace.DefaultBursty(avgRate), horizon, 7)
	fmt.Printf("trace: %d arrivals, avg %.0f req/s, burstiness CV²=%.0f\n",
		len(arr), arr.Rate(horizon), arr.Burstiness())

	eng := sim.NewEngine()
	coll := scheduler.NewCollector(m.Base.NumLayers(), slo, 0)
	pipe, batcher, err := serving.Deploy(eng, clus, m, plan, coll, nil)
	if err != nil {
		log.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Mix(0.8), 7)
	c, err := serving.RunOpenLoopStream(eng, pipe, batcher, trace.NewSliceStream(arr), gen, slo)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("goodput:     %.0f req/s (of %.0f offered)\n", c.Good.Goodput(), arr.Rate(horizon))
	fmt.Printf("dropped:     %d  violations: %d\n", c.Dropped, c.Violations)
	fmt.Printf("latency:     %s\n", c.Lat.Summarize())
	fmt.Printf("utilization: %.1f%% (bursty traces leave GPUs mostly idle)\n",
		100*c.Util.Utilization(eng.Now()))
}
