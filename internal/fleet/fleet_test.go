package fleet

import (
	"runtime"
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
	if _, err := f.run(); err != nil {
		t.Fatal(err)
	}
	for _, rep := range f.replicas {
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

// TestFleetKeepsNoLatencies: no fleet reader asks for exact latencies,
// so a served run leaves every tenant collector without a recorder.
func TestFleetKeepsNoLatencies(t *testing.T) {
	f, err := New(tinyConfig(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Served == 0 {
		t.Fatal("fleet served nothing")
	}
	for _, rep := range f.replicas {
		for ti, rt := range rep.tenants {
			if rt.st.Coll.Lat != nil {
				t.Errorf("shard %d tenant %d keeps %d latency samples, want no recorder", rep.Index, ti, rt.st.Coll.Lat.Count())
			}
		}
	}
}

// maxAllocBytesPerCompletion bounds what one more completion of the
// hetero fleet allocates, measured as the TotalAlloc difference between
// a 10 s and a 20 s run divided by their difference in completions. The
// runs read about 2.9 B; with an exact latency recorder (about 6 B per
// sample) on every stack they read about 8.5.
const maxAllocBytesPerCompletion = 6

// TestFleetAllocBytesPerCompletion: a longer fleet run allocates at most
// maxAllocBytesPerCompletion per extra completion, so no stack keeps a
// latency per completion.
func TestFleetAllocBytesPerCompletion(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	run := func(horizon float64) (bytes uint64, completions int) {
		cfg := HeteroConfig(4, 1)
		cfg.Horizon = horizon
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before, res.Served + res.Violations
	}
	b1, c1 := run(10)
	b2, c2 := run(20)
	if c2 <= c1 {
		t.Fatalf("completions %d at 20 s, %d at 10 s", c2, c1)
	}
	per := float64(int64(b2)-int64(b1)) / float64(c2-c1)
	t.Logf("%d B over %d completions at 10 s, %d B over %d at 20 s: %.2f B per extra completion", b1, c1, b2, c2, per)
	if per > maxAllocBytesPerCompletion {
		t.Errorf("%.2f B allocated per extra completion, want at most %d", per, maxAllocBytesPerCompletion)
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
