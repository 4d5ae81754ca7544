package experiments

import "testing"

// TestSimBenchPooledUnpooledByteIdentical is the determinism property the
// fast path must never trade away: for any seed, a pooled run and an
// unpooled run of the same config produce identical exhaustive ledger
// digests (every sample's full event sequence), identical event counts,
// and identical serving metrics. It runs unconditionally — it is the
// contract, not a perf gate.
func TestSimBenchPooledUnpooledByteIdentical(t *testing.T) {
	plan, err := PlanSimBench(DefaultSimBench())
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 42, 97} {
		cfg := DefaultSimBench()
		cfg.Rate, cfg.Horizon, cfg.Seed = 3000, 4, seed
		cfg.AuditStride = 1 // exhaustive: the digest covers every sample
		cfg.Plan = &plan

		cfg.Pooled = true
		pooled, err := RunSimBench(cfg)
		if err != nil {
			t.Fatalf("seed %d pooled: %v", seed, err)
		}
		cfg.Pooled = false
		plain, err := RunSimBench(cfg)
		if err != nil {
			t.Fatalf("seed %d unpooled: %v", seed, err)
		}

		if pooled.Digest != plain.Digest {
			t.Fatalf("seed %d: pooled and unpooled ledger digests differ — pooling changed execution", seed)
		}
		if pooled.Events != plain.Events {
			t.Fatalf("seed %d: event counts differ (pooled %d, unpooled %d)", seed, pooled.Events, plain.Events)
		}
		if pooled.Requests != plain.Requests || pooled.Completed != plain.Completed || pooled.Dropped != plain.Dropped {
			t.Fatalf("seed %d: terminal totals differ: pooled %d/%d/%d vs unpooled %d/%d/%d",
				seed, pooled.Requests, pooled.Completed, pooled.Dropped,
				plain.Requests, plain.Completed, plain.Dropped)
		}
		if pooled.Goodput != plain.Goodput || pooled.Latency != plain.Latency {
			t.Fatalf("seed %d: serving metrics differ under pooling", seed)
		}
		if !pooled.AuditOK {
			t.Fatalf("seed %d: conservation audit failed: %v", seed, pooled.Report.Violations)
		}
	}
}
