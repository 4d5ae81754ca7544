package fleet

import (
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/multi"
	"e3/internal/workload"
)

// DemoTenants is the multi-model zoo the fleet demos serve: BERT on
// GLUE, ResNet on ImageNet, and Llama on BoolQ, each with its paper SLO
// regime. Rates are fleet-wide and scale with the replica count so each
// shard sees comparable per-cluster load regardless of fleet size.
func DemoTenants(replicas int) []multi.Tenant {
	scale := float64(replicas)
	return []multi.Tenant{
		{
			Name:  "bert-sst2",
			Model: ee.NewDeeBERT(model.BERTBase(), 0.4),
			Dist:  workload.SST2(),
			Rate:  900 * scale,
			SLO:   0.100,
			Batch: 8,
		},
		{
			Name:  "resnet-imagenet",
			Model: ee.NewBranchyNet(model.ResNet50()),
			Dist:  workload.ImageNet(),
			Rate:  600 * scale,
			SLO:   0.150,
			Batch: 8,
		},
		{
			Name:  "llama-boolq",
			Model: ee.NewLlamaEE(model.Llama318B()),
			Dist:  workload.BoolQ(),
			Rate:  30 * scale,
			SLO:   0.500,
			Batch: 4,
		},
	}
}

// demoReplicaInventory is one shard's device complement: enough V100s
// for the BERT/ResNet demand plus the A6000s Llama needs (fig22 serves
// Llama-3.1-8B on A6000s).
func demoReplicaInventory() map[gpu.Kind]int {
	return map[gpu.Kind]int{gpu.V100: 8, gpu.A6000: 4}
}

// DemoConfig builds the canonical fleet run the bench, the server, and
// the gate all use: n homogeneous replicas serving the demo zoo.
// Horizon and epoch are short enough for CI, long enough that every
// stack forms thousands of batches per shard.
func DemoConfig(n, workers int) Config {
	specs := make([]ReplicaSpec, n)
	for i := range specs {
		specs[i] = ReplicaSpec{GPUs: demoReplicaInventory()}
	}
	return Config{
		Tenants:     DemoTenants(n),
		Replicas:    specs,
		Horizon:     30,
		EpochDur:    1,
		Seed:        1097,
		AuditStride: 100,
		Workers:     workers,
	}
}

// HeteroConfig is DemoConfig with a deliberately uneven fleet — every
// other replica gets roughly half the inventory — so routing shares must
// follow capacity, not replica count. The starvation test runs on this.
func HeteroConfig(n, workers int) Config {
	cfg := DemoConfig(n, workers)
	for i := range cfg.Replicas {
		if i%2 == 1 {
			cfg.Replicas[i] = ReplicaSpec{GPUs: map[gpu.Kind]int{gpu.V100: 4, gpu.A6000: 2}}
		}
	}
	return cfg
}
