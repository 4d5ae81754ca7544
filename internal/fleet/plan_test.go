package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"e3/internal/cluster"
	"e3/internal/multi"
)

// sharesPlan reports whether two replicas deploy the same allocations:
// every tenant's plan splits sit in one backing array.
func sharesPlan(a, b *Replica) bool {
	for ti := range a.tenants {
		sa, sb := a.tenants[ti].st.Alloc.Plan.Splits, b.tenants[ti].st.Alloc.Plan.Splits
		if len(sa) == 0 || len(sb) == 0 || &sa[0] != &sb[0] {
			return false
		}
	}
	return true
}

// TestSameInventoryPlansOnce: replicas with equal inventories deploy one
// shared, read-only plan, replicas with different inventories do not, and
// every replica still owns its whole serving stack.
func TestSameInventoryPlansOnce(t *testing.T) {
	hetero, err := New(HeteroConfig(4, 2))
	if err != nil {
		t.Fatalf("New(hetero): %v", err)
	}
	r := hetero.replicas
	if !sharesPlan(r[0], r[2]) || !sharesPlan(r[1], r[3]) {
		t.Error("hetero: replicas 0/2 or 1/3 have equal inventories but were planned separately")
	}
	if sharesPlan(r[0], r[1]) {
		t.Error("hetero: replicas 0 and 1 have different inventories but share a plan")
	}

	demo, err := New(DemoConfig(8, 2))
	if err != nil {
		t.Fatalf("New(demo): %v", err)
	}
	for i, rep := range demo.replicas[1:] {
		if !sharesPlan(demo.replicas[0], rep) {
			t.Errorf("demo: replica %d does not share replica 0's plan", i+1)
		}
	}

	for name, f := range map[string]*Fleet{"hetero": hetero, "demo": demo} {
		seen := make(map[any]string)
		own := func(p any, what string, idx int) {
			if prev, dup := seen[p]; dup {
				t.Errorf("%s: replica %d's %s is also %s", name, idx, what, prev)
			}
			seen[p] = fmt.Sprintf("replica %d's %s", idx, what)
		}
		for _, rep := range f.replicas {
			own(rep.clus, "cluster", rep.Index)
			own(rep.eng, "engine", rep.Index)
			own(rep.pool, "pool", rep.Index)
			for _, rt := range rep.tenants {
				own(rt.st.Batcher, rt.st.Spec.Name+" batcher", rep.Index)
				own(rt.st.Pipe, rt.st.Spec.Name+" pipeline", rep.Index)
				own(rt.st.Coll, rt.st.Spec.Name+" collector", rep.Index)
				own(rt.st.Coll.Audit, rt.st.Spec.Name+" ledger", rep.Index)
				own(rt.budget, rt.st.Spec.Name+" budget", rep.Index)
			}
		}
	}
}

// builtFleet keeps BenchmarkFleetNew's result live.
var builtFleet *Fleet

// BenchmarkFleetNew measures fleet setup: planning every distinct replica
// inventory and deploying a serving stack per replica.
func BenchmarkFleetNew(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"hetero-4", HeteroConfig(4, 2)},
		{"demo-8", DemoConfig(8, 2)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := New(c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				builtFleet = f
			}
		})
	}
}

// TestPlanProfiledMatchesPlan checks that planning with the exit
// profiles drawn once, as New does, allocates exactly what multi.Plan
// does when it draws them itself: the demo zoo on both demo inventories.
func TestPlanProfiledMatchesPlan(t *testing.T) {
	cfg := HeteroConfig(2, 1)
	profs := multi.Profiles(tenantsAt(cfg, 1))
	for i, spec := range cfg.Replicas {
		clus := cluster.New(spec.GPUs, 2)
		tenants := tenantsAt(cfg, planScale(cfg, i))
		want, err := multi.Plan(clus, tenants)
		if err != nil {
			t.Fatalf("%s: Plan: %v", cluster.Describe(spec.GPUs), err)
		}
		got, err := multi.PlanProfiled(clus, tenants, profs)
		if err != nil {
			t.Fatalf("%s: PlanProfiled: %v", cluster.Describe(spec.GPUs), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: PlanProfiled allocated %+v, Plan %+v", cluster.Describe(spec.GPUs), got, want)
		}
	}
}
