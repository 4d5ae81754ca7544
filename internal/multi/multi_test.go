package multi

import (
	"testing"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/scheduler"
	"e3/internal/sim"
	"e3/internal/workload"
)

func twoTenants() []Tenant {
	return []Tenant{
		{
			Name:  "ranker",
			Model: ee.NewDeeBERT(model.BERTBase(), 0.4),
			Dist:  workload.Mix(0.8),
			Rate:  4000,
			SLO:   0.1,
			Batch: 8,
		},
		{
			Name:  "vision",
			Model: ee.NewBranchyNet(model.ResNet50()),
			Dist:  workload.ImageNet(),
			Rate:  8000,
			SLO:   0.1,
			Batch: 16,
		},
	}
}

func TestPlanPartitionsDisjointly(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 24)
	allocs, err := Plan(clus, twoTenants())
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 2 {
		t.Fatalf("allocations = %d", len(allocs))
	}
	seen := make(map[int]string)
	totalDevs := 0
	for _, a := range allocs {
		if a.Plan.Goodput <= 0 {
			t.Errorf("tenant %s has zero-goodput plan", a.Tenant)
		}
		for _, d := range a.Devices {
			if owner, dup := seen[d]; dup {
				t.Fatalf("device %d assigned to both %s and %s", d, owner, a.Tenant)
			}
			seen[d] = a.Tenant
		}
		totalDevs += len(a.Devices)
		if len(a.Devices) != a.Plan.GPUs {
			t.Errorf("tenant %s pinned %d devices, plan says %d", a.Tenant, len(a.Devices), a.Plan.GPUs)
		}
	}
	if totalDevs > clus.Size() {
		t.Fatalf("allocated %d devices from a %d-GPU cluster", totalDevs, clus.Size())
	}
}

func TestPlanMeetsEachTenantsRate(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 24)
	tenants := twoTenants()
	allocs, err := Plan(clus, tenants)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range allocs {
		for _, tn := range tenants {
			if tn.Name == a.Tenant && a.Plan.Goodput < tn.Rate {
				t.Errorf("tenant %s plan sustains %v < demanded %v", tn.Name, a.Plan.Goodput, tn.Rate)
			}
		}
	}
}

func TestPlanLeftoversGoToTightestTenant(t *testing.T) {
	// A roomy cluster: leftovers exist; total allocated goodput must be at
	// least the sum of minimal plans (the tightest tenant got a boost or
	// stayed equal).
	clus := cluster.Homogeneous(gpu.V100, 32)
	allocs, err := Plan(clus, twoTenants())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range allocs {
		if a.Plan.Goodput <= 0 {
			t.Fatal("bad plan")
		}
	}
}

func TestPlanRejectsOverload(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 4)
	ts := twoTenants()
	ts[0].Rate = 50000
	if _, err := Plan(clus, ts); err == nil {
		t.Error("impossible multi-tenant demand accepted")
	}
}

func TestPlanValidation(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 8)
	if _, err := Plan(clus, nil); err == nil {
		t.Error("empty tenant list accepted")
	}
	ts := twoTenants()
	ts[1].Name = ts[0].Name
	if _, err := Plan(clus, ts); err == nil {
		t.Error("duplicate tenant names accepted")
	}
	ts = twoTenants()
	ts[0].Name = ""
	if _, err := Plan(clus, ts); err == nil {
		t.Error("empty tenant name accepted")
	}
}

func TestDeployAndServeBothTenants(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 24)
	tenants := twoTenants()
	allocs, err := Plan(clus, tenants)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	stacks, err := DeployServing(eng, clus, tenants, allocs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]ServingTenant, len(stacks))
	for _, st := range stacks {
		byName[st.Spec.Name] = st
	}

	genR := workload.NewGenerator(workload.Mix(0.8), 61)
	genR.SetSink(byName["ranker"].Coll)
	genV := workload.NewGenerator(workload.ImageNet(), 62)
	genV.SetSink(byName["vision"].Coll)
	for i := 0; i < 100; i++ {
		at := float64(i) * 0.002
		eng.At(at, func() {
			byName["ranker"].Pipe.Ingest(genR.Batch(8, eng.Now(), 10))
			byName["vision"].Pipe.Ingest(genV.Batch(16, eng.Now(), 10))
		})
	}
	eng.SetEventLimit(10_000_000)
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	for _, st := range stacks {
		st.Pipe.FlushAll()
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}

	cr := byName["ranker"].Coll
	cv := byName["vision"].Coll
	if got := cr.Good.Served + cr.Violations; got != 800 {
		t.Errorf("ranker served+violated = %d, want 800", got)
	}
	if got := cv.Good.Served + cv.Violations; got != 1600 {
		t.Errorf("vision served+violated = %d, want 1600", got)
	}
	for _, c := range []*scheduler.Collector{cr, cv} {
		if err := c.AuditReport().Err(); err != nil {
			t.Error(err)
		}
	}
	bogus := append([]Allocation(nil), allocs...)
	bogus[0].Tenant = "nope"
	if _, err := DeployServing(sim.NewEngine(), clus, tenants, bogus, 1, nil); err == nil {
		t.Error("allocation for an unknown tenant accepted")
	}
}
