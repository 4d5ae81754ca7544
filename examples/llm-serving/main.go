// llm-serving reproduces the §5.1.3 autoregressive scenario in miniature:
// T5+CALM translation where ~70% of tokens exit by decoder layer 2. It
// compares static-batch T5, static-batch CALM, and E3's token-stream split
// pipeline on 4 A6000s.
//
//	go run ./examples/llm-serving
package main

import (
	"fmt"
	"log"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/llm"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/workload"
)

func main() {
	const (
		avgTokens = 25
		batch     = 16
		nGPU      = 4
	)
	spec := gpu.Get(gpu.A6000)
	dist := workload.WMT()
	lengths := llm.FixedLen(avgTokens)

	t5 := ee.NewVanilla(model.T5Decoder(avgTokens))
	calm := ee.NewCALM(model.T5Decoder(avgTokens), 0.25)

	gT5 := llm.GoodputStatic(t5, lengths, dist, batch, nGPU, spec, 30, 1)
	gCALM := llm.GoodputStatic(calm, lengths, dist, batch, nGPU, spec, 30, 1)

	// E3: plan token-level splits, then measure the pipeline on the token
	// stream (each "sample" is one token pass).
	clus := cluster.Homogeneous(gpu.A6000, nGPU)
	prof := profile.Offline(calm, dist)
	plan, err := optimizer.MaximizeGoodput(optimizer.NewConfig(calm, prof, batch, clus, 0.100*avgTokens/4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("E3 token-pipeline plan:", plan)

	build := func() (*sim.Engine, scheduler.Runner) {
		eng := sim.NewEngine()
		coll := scheduler.NewCollector(calm.Base.NumLayers(), 10, 0)
		p, err := scheduler.NewPipeline(eng, cluster.Homogeneous(gpu.A6000, nGPU), calm, plan, coll)
		if err != nil {
			log.Fatal(err)
		}
		return eng, p
	}
	gen := func() *workload.Generator { return workload.NewGenerator(dist, 2) }
	tokensPerSec, err := serving.MaxGoodput(build, gen, batch, 10, 2, 100000, 0.01)
	if err != nil {
		log.Fatal(err)
	}
	gE3 := tokensPerSec / avgTokens

	fmt.Printf("\n%-22s %10s %8s\n", "system", "req/s", "vs T5")
	fmt.Printf("%-22s %10.1f %8s\n", "T5 (static batch)", gT5, "1.00x")
	fmt.Printf("%-22s %10.1f %7.2fx\n", "CALM (static batch)", gCALM, gCALM/gT5)
	fmt.Printf("%-22s %10.1f %7.2fx\n", "E3 (token pipeline)", gE3, gE3/gT5)
}
