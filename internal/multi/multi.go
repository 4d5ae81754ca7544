// Package multi serves several early-exit models from one shared cluster —
// the multi-tenant shape of the paper's production infrastructure ("of
// several services it supports...", §2.4). Plan partitions devices across
// tenants by solving each tenant's minimal allocation for its offered load
// (optimizer.MinimizeGPUs semantics) and granting leftover capacity to the
// most-constrained tenant; DeployServing then runs one E3 serving stack
// per tenant on disjoint devices.
package multi

import (
	"errors"
	"fmt"
	"sort"

	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/workload"
)

// Tenant is one model deployment sharing the cluster.
type Tenant struct {
	Name  string
	Model *ee.EEModel
	// Dist is the tenant's workload (used to profile exits).
	Dist workload.Dist
	// Rate is the offered load the allocation must sustain (samples/s).
	Rate float64
	// SLO and Batch follow the usual E3 meanings.
	SLO   float64
	Batch int
}

// Allocation is the outcome for one tenant.
type Allocation struct {
	Tenant  string
	Plan    optimizer.Plan
	Devices []int // indices into the shared cluster
}

// Plan partitions the cluster across tenants. Tenants are served in
// descending rate-demand order; each receives the minimal device set
// sustaining its rate, drawn from the remaining inventory. Leftover
// devices go to the tenant with the least headroom. It fails if any
// tenant cannot be satisfied. Each tenant's exit profile is drawn from
// its Dist; PlanProfiled takes them already drawn.
func Plan(clus *cluster.Cluster, tenants []Tenant) ([]Allocation, error) {
	if err := ValidateTenants(tenants); err != nil {
		return nil, err
	}
	return PlanProfiled(clus, tenants, Profiles(tenants))
}

// Profiles draws each tenant's exit profile as Plan does, indexed like
// tenants. A profile does not depend on the tenant's rate.
func Profiles(tenants []Tenant) []profile.Batch {
	profs := make([]profile.Batch, len(tenants))
	for i, t := range tenants {
		profs[i] = profile.Offline(t.Model, t.Dist)
	}
	return profs
}

// PlanProfiled is Plan with each tenant's exit profile given, indexed
// like tenants, so a caller that plans the same tenants more than once
// draws them once.
func PlanProfiled(clus *cluster.Cluster, tenants []Tenant, profiles []profile.Batch) ([]Allocation, error) {
	if err := ValidateTenants(tenants); err != nil {
		return nil, err
	}
	if len(profiles) != len(tenants) {
		return nil, fmt.Errorf("multi: %d profiles for %d tenants", len(profiles), len(tenants))
	}

	// Hardest demands first so they get first pick of the inventory.
	byRate := make([]int, len(tenants))
	for i := range byRate {
		byRate[i] = i
	}
	sort.SliceStable(byRate, func(i, j int) bool { return tenants[byRate[i]].Rate > tenants[byRate[j]].Rate })
	order := make([]Tenant, len(tenants))
	profs := make([]profile.Batch, len(tenants))
	for i, ti := range byRate {
		order[i], profs[i] = tenants[ti], profiles[ti]
	}

	// Each tenant's exit profile serves both its minimal plan and a
	// leftover-grant replan; allocs[i] belongs to order[i].
	remaining := clus.Counts()
	var allocs []Allocation
	for i, t := range order {
		plan, err := optimizer.MinimizeGPUs(optimizer.NewConfig(t.Model, profs[i], t.Batch, clusterFromCounts(remaining, clus), t.SLO), t.Rate)
		if err != nil {
			return nil, fmt.Errorf("multi: tenant %q: %w", t.Name, err)
		}
		for _, s := range plan.Splits {
			remaining[s.Kind] -= s.Replicas
		}
		allocs = append(allocs, Allocation{Tenant: t.Name, Plan: plan})
	}

	// Grant leftovers to the tenant with the least headroom (plan goodput
	// closest to its demanded rate), by replanning it on its devices plus
	// everything left.
	if total(remaining) > 0 {
		worst, worstHeadroom := -1, 0.0
		for i, a := range allocs {
			head := a.Plan.Goodput / order[i].Rate
			if worst == -1 || head < worstHeadroom {
				worst, worstHeadroom = i, head
			}
		}
		pool := make(map[gpu.Kind]int, len(remaining))
		for k, n := range remaining {
			pool[k] = n
		}
		for _, s := range allocs[worst].Plan.Splits {
			pool[s.Kind] += s.Replicas
		}
		t := order[worst]
		cfg := optimizer.NewConfig(t.Model, profs[worst], t.Batch, clusterFromCounts(pool, clus), t.SLO)
		if plan, err := optimizer.MaximizeGoodput(cfg); err == nil && plan.Goodput > allocs[worst].Plan.Goodput {
			allocs[worst].Plan = plan
		}
	}

	// Pin concrete devices, disjointly, in allocation order.
	used := make(map[int]bool)
	for i := range allocs {
		devs, err := pinDevices(clus, allocs[i].Plan, used)
		if err != nil {
			return nil, fmt.Errorf("multi: pinning %q: %w", allocs[i].Tenant, err)
		}
		allocs[i].Devices = devs
	}
	return allocs, nil
}

// ValidateTenants rejects an empty tenant list and empty or duplicate
// tenant names.
func ValidateTenants(tenants []Tenant) error {
	if len(tenants) == 0 {
		return errors.New("multi: no tenants")
	}
	names := make(map[string]bool)
	for _, t := range tenants {
		if t.Name == "" {
			return errors.New("multi: tenant with empty name")
		}
		if names[t.Name] {
			return fmt.Errorf("multi: duplicate tenant %q", t.Name)
		}
		names[t.Name] = true
	}
	return nil
}

func tenantOf(ts []Tenant, name string) Tenant {
	for _, t := range ts {
		if t.Name == name {
			return t
		}
	}
	return Tenant{}
}

func total(counts map[gpu.Kind]int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// clusterFromCounts materializes a sub-cluster with the given inventory,
// inheriting the parent topology.
func clusterFromCounts(counts map[gpu.Kind]int, parent *cluster.Cluster) *cluster.Cluster {
	sub := cluster.New(counts, 2)
	sub.Topology = parent.Topology
	return sub
}

// pinDevices picks concrete unused device indices per split kind.
func pinDevices(clus *cluster.Cluster, plan optimizer.Plan, used map[int]bool) ([]int, error) {
	var out []int
	for _, s := range plan.Splits {
		need := s.Replicas
		for _, idx := range clus.OfKind(s.Kind) {
			if need == 0 {
				break
			}
			if used[idx] {
				continue
			}
			used[idx] = true
			out = append(out, idx)
			need--
		}
		if need > 0 {
			return nil, fmt.Errorf("short %d %s devices", need, s.Kind)
		}
	}
	return out, nil
}

// ServingTenant is one tenant's full serving stack on a shared engine:
// the dynamic batcher front door, the pipeline it dispatches to, and the
// collector (with a lifecycle ledger attached) the pipeline reports into.
// This is the multi-tenant partitioning promoted into the serving path —
// the fleet tier builds one of these per (replica, tenant).
type ServingTenant struct {
	Spec    Tenant
	Alloc   Allocation
	Batcher *serving.Batcher
	Pipe    *scheduler.Pipeline
	Coll    *scheduler.Collector
}

// DeployServing binds allocations to complete serving stacks on one
// engine: per tenant, a collector with a sampled conservation ledger
// (auditStride ≤ 1 = exhaustive), then serving.Deploy's pipeline and
// batcher on the tenant's pinned devices. All tenants share the given
// batch pool — legal because they share one event loop; the pool, like
// the engine, is owned by that loop (a nil pool disables recycling).
func DeployServing(eng *sim.Engine, clus *cluster.Cluster, tenants []Tenant, allocs []Allocation, auditStride int64, pool *workload.BatchPool) ([]ServingTenant, error) {
	out := make([]ServingTenant, 0, len(allocs))
	used := make(map[int]bool)
	for _, a := range allocs {
		t := tenantOf(tenants, a.Tenant)
		if t.Name == "" {
			return nil, fmt.Errorf("multi: allocation for unknown tenant %q", a.Tenant)
		}
		sub := &cluster.Cluster{Topology: clus.Topology}
		for _, idx := range a.Devices {
			if used[idx] {
				return nil, fmt.Errorf("multi: device %d double-booked", idx)
			}
			used[idx] = true
			sub.Devices = append(sub.Devices, clus.Devices[idx])
		}
		coll := scheduler.NewCollector(t.Model.Base.NumLayers(), t.SLO, eng.Now())
		coll.Audit = audit.NewSampledLedger(auditStride)
		pipe, b, err := serving.Deploy(eng, sub, t.Model, a.Plan, coll, pool)
		if err != nil {
			return nil, fmt.Errorf("multi: tenant %q: %w", a.Tenant, err)
		}
		out = append(out, ServingTenant{Spec: t, Alloc: a, Batcher: b, Pipe: pipe, Coll: coll})
	}
	return out, nil
}
