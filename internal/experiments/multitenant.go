package experiments

import (
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/multi"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/workload"
)

func init() { register("extension-multitenant", ExtensionMultiTenant) }

// ExtensionMultiTenant partitions one 24-V100 cluster between an NLP
// ranker and a vision service, serves both at their demanded rates, and
// reports per-tenant goodput and the devices each received — the
// multi-service shape of the paper's §2.4 production infrastructure.
func ExtensionMultiTenant() Table {
	tenants := []multi.Tenant{
		{
			Name:  "nlp-ranker",
			Model: ee.NewDeeBERT(model.BERTBase(), 0.4),
			Dist:  workload.Mix(0.8),
			Rate:  4000,
			SLO:   defaultSLO,
			Batch: 8,
		},
		{
			Name:  "vision",
			Model: ee.NewBranchyNet(model.ResNet50()),
			Dist:  workload.ImageNet(),
			Rate:  8000,
			SLO:   defaultSLO,
			Batch: 16,
		},
	}
	t := Table{
		ID:      "extension-multitenant",
		Title:   "Multi-tenant cluster partitioning (24xV100, two services)",
		Columns: []string{"tenant", "demanded (req/s)", "devices", "planned (req/s)", "measured (req/s)", "bad frac"},
		Notes:   "extension of §2.4's multi-service infrastructure: disjoint E3 deployments from one inventory",
	}
	clus := cluster.Homogeneous(gpu.V100, 24)
	allocs, err := multi.Plan(clus, tenants)
	if err != nil {
		return t
	}
	eng := sim.NewEngine()
	stacks, err := multi.DeployServing(eng, clus, tenants, allocs, 1, nil)
	if err != nil {
		return t
	}

	// Offer each tenant exactly its demanded rate for 3 virtual seconds,
	// in full batches straight to its pipeline.
	for _, st := range stacks {
		tn := st.Spec
		gen := workload.NewGenerator(tn.Dist, 311)
		gen.SetAudit(st.Coll.Audit)
		serving.ScheduleClosedLoop(eng, st.Pipe, gen, tn.Batch, tn.Rate, 3.0, tn.SLO)
	}
	eng.SetEventLimit(50_000_000)
	if err := eng.RunAll(); err != nil {
		t.Notes += " [ABORTED: " + err.Error() + "]"
		return t
	}
	for _, st := range stacks {
		st.Pipe.FlushAll()
	}
	if err := eng.RunAll(); err != nil {
		t.Notes += " [ABORTED: " + err.Error() + "]"
		return t
	}

	for _, st := range stacks {
		a, tn, c := st.Alloc, st.Spec, st.Coll
		c.Good.CloseAt(eng.Now())
		total := c.Good.Served + c.Violations + c.Dropped
		bad := 0.0
		if total > 0 {
			bad = float64(c.Violations+c.Dropped) / float64(total)
		}
		t.Rows = append(t.Rows, []string{
			a.Tenant, f0(tn.Rate), itoa(len(a.Devices)), f0(a.Plan.Goodput),
			f0(c.Good.Goodput()), pct(bad),
		})
	}
	return t
}
