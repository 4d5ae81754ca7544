package fleet

import (
	"testing"

	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/multi"
	"e3/internal/telemetry"
	"e3/internal/workload"
)

func testBERT() *ee.EEModel   { return ee.NewDeeBERT(model.BERTBase(), 0.4) }
func testResNet() *ee.EEModel { return ee.NewBranchyNet(model.ResNet50()) }

// tinyConfig is the fast two-replica, two-tenant fleet the unit and
// property tests run: small clusters keep planning cheap, rates keep
// each shard busy enough to form batches every epoch.
func tinyConfig(seed int64, workers int) Config {
	return Config{
		Tenants: []multi.Tenant{
			{Name: "bert", Model: testBERT(), Dist: workload.SST2(), Rate: 400, SLO: 0.100, Batch: 8},
			{Name: "resnet", Model: testResNet(), Dist: workload.ImageNet(), Rate: 240, SLO: 0.150, Batch: 8},
		},
		Replicas: []ReplicaSpec{
			{GPUs: map[gpu.Kind]int{gpu.V100: 4}},
			{GPUs: map[gpu.Kind]int{gpu.V100: 4}},
		},
		Horizon:     4,
		EpochDur:    0.5,
		Seed:        seed,
		AuditStride: 10,
		Workers:     workers,
	}
}

func TestFleetRunSmoke(t *testing.T) {
	res, err := Run(tinyConfig(1, 1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Minted == 0 || res.Routed == 0 {
		t.Fatalf("no traffic: minted=%d routed=%d", res.Minted, res.Routed)
	}
	if res.Served == 0 {
		t.Fatalf("nothing served (violations=%d dropped=%d shed=%d)", res.Violations, res.Dropped, res.DoorShed)
	}
	if res.Minted != res.Routed+res.DoorShed {
		t.Fatalf("door leak: %d != %d + %d", res.Minted, res.Routed, res.DoorShed)
	}
	if len(res.Shards) != 2 {
		t.Fatalf("want 2 shards, got %d", len(res.Shards))
	}
	for _, sr := range res.Shards {
		if sr.Events == 0 {
			t.Errorf("shard %d processed no events", sr.Index)
		}
	}
	t.Logf("minted=%d served=%d violations=%d dropped=%d shed=%d events=%d",
		res.Minted, res.Served, res.Violations, res.Dropped, res.DoorShed, res.Events)
}

// TestFleetHeterogeneousReplicas runs the uneven fleet: replicas of
// different sizes must still plan, serve, and conserve.
func TestFleetHeterogeneousReplicas(t *testing.T) {
	cfg := tinyConfig(7, 2)
	cfg.Replicas[1] = ReplicaSpec{GPUs: map[gpu.Kind]int{gpu.V100: 2}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Both replicas must carry traffic, and the bigger one more of it.
	big, small := 0, 0
	for _, sr := range res.Shards {
		for _, tr := range sr.Tenants {
			if sr.Index == 0 {
				big += tr.Routed
			} else {
				small += tr.Routed
			}
		}
	}
	if big == 0 || small == 0 {
		t.Fatalf("a replica was starved: big=%d small=%d", big, small)
	}
	if big <= small {
		t.Errorf("capacity-blind routing: 4-GPU replica got %d, 2-GPU got %d", big, small)
	}
}

// TestShardTracersReconcile attaches a tracer to every shard stack's
// collector and runs a small fleet epoch by epoch. Every routed arrival
// must reach the stack's views through its collector, so each tracer
// counts as many arrivals as its ledger and reconciles against it
// without a violation.
func TestShardTracersReconcile(t *testing.T) {
	cfg := tinyConfig(5, 2)
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, rep := range f.replicas {
		for _, rt := range rep.tenants {
			rt.st.Coll.Tracer = telemetry.NewRing(64)
		}
	}
	f.mint(f.epochEnd(0))
	for e, start := 0, 0.0; start < cfg.Horizon; e++ {
		end := f.epochEnd(e)
		f.router.RouteEpoch(f, e, start, end)
		if err := f.advance(e); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		f.burnBudgets(cfg.EpochDur)
		start = end
	}
	for _, rep := range f.replicas {
		if err := rep.Drain(); err != nil {
			t.Fatalf("shard %d drain: %v", rep.Index, err)
		}
		for ti, rt := range rep.tenants {
			coll := rt.st.Coll
			arrived, _, _ := coll.Audit.Totals()
			traced, _, _ := coll.Tracer.Counts()
			if arrived == 0 || int(traced) != arrived {
				t.Errorf("shard %d tenant %d: tracer counted %d arrivals, ledger %d", rep.Index, ti, traced, arrived)
			}
			rpt := coll.AuditReport()
			coll.Tracer.Reconcile(rpt)
			if err := rpt.Err(); err != nil {
				t.Errorf("shard %d tenant %d: %v", rep.Index, ti, err)
			}
		}
	}
}

// TestFleetConfigValidation exercises the rejection paths.
func TestFleetConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Tenants: DemoTenants(1)},
		{Tenants: DemoTenants(1), Replicas: []ReplicaSpec{{GPUs: map[gpu.Kind]int{gpu.V100: 4}}}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d: want error, got nil", i)
		}
	}
	dup := tinyConfig(1, 1)
	dup.Tenants[1].Name = dup.Tenants[0].Name
	if _, err := New(dup); err == nil {
		t.Error("duplicate tenant name accepted")
	}
}
