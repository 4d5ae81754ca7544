// multi-tenant partitions one shared GPU cluster between two E3-served
// models — an NLP ranker and a vision classifier — the multi-service shape
// of the paper's production infrastructure (§2.4).
//
//	go run ./examples/multi-tenant
package main

import (
	"fmt"
	"log"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/multi"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/workload"
)

func main() {
	tenants := []multi.Tenant{
		{
			Name:  "nlp-ranker",
			Model: ee.NewDeeBERT(model.BERTBase(), 0.4),
			Dist:  workload.Mix(0.8),
			Rate:  4000,
			SLO:   0.100,
			Batch: 8,
		},
		{
			Name:  "vision",
			Model: ee.NewBranchyNet(model.ResNet50()),
			Dist:  workload.ImageNet(),
			Rate:  8000,
			SLO:   0.100,
			Batch: 16,
		},
	}
	clus := cluster.Homogeneous(gpu.V100, 24)

	allocs, err := multi.Plan(clus, tenants)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("partitioning of 24 V100s:")
	for _, a := range allocs {
		fmt.Printf("  %-11s %2d devices  plan: %v\n", a.Tenant, len(a.Devices), a.Plan)
	}

	// One serving stack per tenant (exhaustive audit ledger, no batch
	// pool); this example feeds full batches straight to each pipeline.
	eng := sim.NewEngine()
	stacks, err := multi.DeployServing(eng, clus, tenants, allocs, 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	byName := make(map[string]multi.ServingTenant, len(stacks))
	for _, st := range stacks {
		byName[st.Spec.Name] = st
	}

	// Serve both tenants at their demanded rates for 5 virtual seconds.
	for _, tn := range tenants {
		st := byName[tn.Name]
		gen := workload.NewGenerator(tn.Dist, 7)
		gen.SetAudit(st.Coll.Audit)
		serving.ScheduleClosedLoop(eng, st.Pipe, gen, tn.Batch, tn.Rate, 5, tn.SLO)
	}
	eng.SetEventLimit(50_000_000)
	if err := eng.RunAll(); err != nil {
		log.Fatal(err)
	}
	for _, st := range stacks {
		st.Pipe.FlushAll()
	}
	if err := eng.RunAll(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nserved:")
	for _, tn := range tenants {
		c := byName[tn.Name].Coll
		c.Good.CloseAt(eng.Now())
		fmt.Printf("  %-11s %6.0f req/s goodput  (%d violations, %d drops)  %s\n",
			tn.Name, c.Good.Goodput(), c.Violations, c.Dropped, c.Lat.Summarize())
	}
}
