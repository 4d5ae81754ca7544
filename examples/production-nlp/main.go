// production-nlp recreates the paper's §2.4 production scenario: a
// 12-layer BERT document-classification service at ~9,000 req/s with a
// 100 ms SLO, where early exits deliver the per-input compute budget that
// compression alone could not — once E3 solves the batching problem.
// The workload shifts hardness mid-run; E3's online profiler re-plans.
//
//	go run ./examples/production-nlp
package main

import (
	"fmt"
	"log"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/forecast"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/profile"
	"e3/internal/replan"
	"e3/internal/workload"
)

func main() {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	clus := cluster.Homogeneous(gpu.V100, 16)

	// 8,000 req/s over six 5 s windows (shortened from the paper's 2 min
	// for the demo); hardness shifts from 80% easy to 50% easy at window 3
	// (the §5.4 adaptability scenario). Window 0 plans from an offline
	// profile of the expected 80%-easy traffic.
	const rate = 8000.0
	res, err := replan.Run(replan.Config{
		Model: m, Cluster: clus, Batch: 8, SLO: 0.100,
		Windows: 6, WindowDur: 5, Seed: 1,
		DriftThreshold: 0.05,
		Workload: func(w int) (workload.Dist, float64) {
			if w < 3 {
				return workload.Mix(0.8), rate
			}
			return workload.Mix(0.5), rate
		},
		Method:  forecast.MethodARIMA,
		Initial: profile.Offline(m, workload.Mix(0.8)),
	})
	if err != nil {
		log.Fatal(err)
	}
	if !res.Report.OK() {
		log.Fatalf("audit failed: %v", res.Report.Err())
	}

	fmt.Printf("%-7s %-9s %-9s %-8s %s\n", "window", "served", "slo-att", "drift", "replanned")
	for _, w := range res.Windows {
		fmt.Printf("%-7d %-9d %-9.4f %-8.3f %t\n", w.Window, w.Served, w.SLOAttainment, w.Drift, w.Replanned)
	}
	fmt.Printf("audit: %d requests, %d completed, %d dropped, conservation OK\n",
		res.Report.Samples, res.Report.Completed, res.Report.Dropped)
	fmt.Printf("replans: %d (profiler tracked the hardness shift)\n", res.Replans)
	fmt.Println("final plan:", res.FinalPlan)
}
