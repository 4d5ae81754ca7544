// heterogeneous-cost demonstrates E3's heterogeneity-aware planning
// (§3.2.3, Figures 13–15): on a mixed V100/P100/K80 pool, E3 places
// replicated early splits on cheap GPUs and the low-batch tail on fast
// ones, then finds the cheapest configuration for a goodput target.
//
//	go run ./examples/heterogeneous-cost
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
	"e3/internal/workload"
)

func main() {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	prof := profile.Offline(m, workload.Mix(0.8))

	// Maximize goodput on the paper's cost-matched heterogeneous cluster.
	het := cluster.PaperHeterogeneous()
	cfg := optimizer.NewConfig(m, prof, 8, het, 0.100)
	plan, err := optimizer.MaximizeGoodput(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("goodput-max plan on 6xV100 + 8xP100 + 15xK80:")
	fmt.Println(" ", plan)
	for _, s := range plan.Splits {
		fmt.Printf("  split [%2d..%2d] on %-5s x%d  (stage %.2fms)\n",
			s.From, s.To, s.Kind, s.Replicas, s.StageTime*1e3)
	}

	// Same goodput, minimal dollars, from a deep pool.
	pool := cluster.New(map[gpu.Kind]int{gpu.V100: 48, gpu.P100: 48, gpu.K80: 48}, 2)
	cfg.Cluster = pool
	target := 6000.0
	cheap, err := optimizer.MinimizeCost(cfg, target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncheapest plan for %.0f samples/s: $%.2f/min using %d GPUs\n",
		target, cheap.CostPerSec*60, cheap.GPUs)
	for _, s := range cheap.Splits {
		fmt.Printf("  split [%2d..%2d] on %-5s x%d\n", s.From, s.To, s.Kind, s.Replicas)
	}

	// Contrast: the cheapest single-kind data-parallel deployment of the
	// non-EE model needs more dollars for the same rate.
	van := ee.NewVanilla(model.BERTBase())
	vanProf := profile.FromDist(van, workload.Mix(0.8), 2000, 1)
	best := 0.0
	var bestKind gpu.Kind
	for _, k := range []gpu.Kind{gpu.V100, gpu.P100, gpu.K80} {
		p, err := optimizer.MinimizeCost(optimizer.NewConfig(van, vanProf, 8, cluster.New(map[gpu.Kind]int{k: 64}, 2), 0.100), target)
		if err != nil {
			continue
		}
		if best == 0 || p.CostPerSec < best {
			best = p.CostPerSec
			bestKind = k
		}
	}
	if best > 0 {
		fmt.Printf("\nvanilla BERT best single-kind option: $%.2f/min on %s\n", best*60, bestKind)
	}
}
