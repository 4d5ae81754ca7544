package httpapi

// Fleet observability surface. FleetStatusOf summarizes a completed fleet
// run into a FleetStatus; the API renders it as per-replica rows in
// /v1/health and e3_fleet_* series on /metrics.

import (
	"strconv"

	"e3/internal/fleet"
)

// FleetTenantStatus is one (replica, tenant) stack's terminal row.
type FleetTenantStatus struct {
	Tenant     string  `json:"tenant"`
	Routed     int     `json:"routed"`
	Served     int     `json:"served"`
	Violations int     `json:"violations"`
	Dropped    int     `json:"dropped"`
	GoodputPS  float64 `json:"goodput_per_sec"`
	CapacityPS float64 `json:"capacity_per_sec"`
	BurnRate   float64 `json:"burn_rate"`
}

// FleetReplicaStatus is one replica's row in /v1/health.
type FleetReplicaStatus struct {
	Index   int                 `json:"index"`
	GPUs    string              `json:"gpus"`
	Events  uint64              `json:"events"`
	Tenants []FleetTenantStatus `json:"tenants"`
}

// FleetStatus summarizes a fleet run for the health and metrics
// endpoints. Conserved reports the fleet-level invariant checks (front
// door conserves, every ledger reconciles, everything drained); a false
// value fails the readiness probe.
type FleetStatus struct {
	Replicas  int                  `json:"replicas"`
	Workers   int                  `json:"workers"`
	Epochs    int                  `json:"epochs"`
	Minted    int                  `json:"minted"`
	Routed    int                  `json:"routed"`
	DoorShed  int                  `json:"door_shed"`
	Events    uint64               `json:"events"`
	Conserved bool                 `json:"conserved"`
	Rows      []FleetReplicaStatus `json:"rows"`
}

// FleetStatusOf summarizes r for /v1/health and /metrics. Conserved
// reflects Verify (which fleet.Run already enforced for a returned
// Result, but the server re-derives it so an unverified Result cannot
// present as healthy).
func FleetStatusOf(r *fleet.Result) *FleetStatus {
	fs := &FleetStatus{
		Replicas:  len(r.Shards),
		Workers:   r.Config.Workers,
		Epochs:    r.Epochs,
		Minted:    r.Minted,
		Routed:    r.Routed,
		DoorShed:  r.DoorShed,
		Events:    r.Events,
		Conserved: r.Verify() == nil,
	}
	for _, sr := range r.Shards {
		row := FleetReplicaStatus{Index: sr.Index, GPUs: sr.GPUs, Events: sr.Events}
		for _, tr := range sr.Tenants {
			row.Tenants = append(row.Tenants, FleetTenantStatus{
				Tenant:     tr.Tenant,
				Routed:     tr.Routed,
				Served:     tr.Served,
				Violations: tr.Violations,
				Dropped:    tr.Dropped,
				GoodputPS:  tr.Goodput,
				CapacityPS: tr.Capacity,
				BurnRate:   tr.Burn,
			})
		}
		fs.Rows = append(fs.Rows, row)
	}
	return fs
}

// writeFleetMetrics renders the e3_fleet_* series. Caller holds a.mu.
func (a *API) writeFleetMetrics(e expo) {
	fs := a.boot.Fleet
	if fs == nil {
		return
	}
	e.one("e3_fleet_replicas", "gauge", "Replica shards in the attached fleet run.", fs.Replicas)
	e.one("e3_fleet_workers", "gauge", "Shard-runner worker count of the attached fleet run.", fs.Workers)
	e.one("e3_fleet_epochs_total", "counter", "Routing epochs executed.", fs.Epochs)
	e.family("e3_fleet_samples_total", "counter", "Fleet front-door accounting by outcome.")
	e.sample("e3_fleet_samples_total", fs.Minted, "outcome", "minted")
	e.sample("e3_fleet_samples_total", fs.Routed, "outcome", "routed")
	e.sample("e3_fleet_samples_total", fs.DoorShed, "outcome", "door_shed")
	e.one("e3_fleet_events_total", "counter", "Simulator events processed, summed across shards.", fs.Events)
	e.one("e3_fleet_conserved", "gauge", "Whether the fleet's conservation invariants held (1 = yes).", fs.Conserved)

	e.family("e3_fleet_replica_events_total", "counter", "Events processed per replica shard.")
	for _, row := range fs.Rows {
		e.sample("e3_fleet_replica_events_total", row.Events, "replica", strconv.Itoa(row.Index), "gpus", row.GPUs)
	}
	const tenantSamples = "e3_fleet_tenant_samples_total"
	e.family(tenantSamples, "counter", "Per-replica per-tenant outcomes of the attached fleet run.")
	for _, row := range fs.Rows {
		rep := strconv.Itoa(row.Index)
		for _, tr := range row.Tenants {
			e.sample(tenantSamples, tr.Routed, "replica", rep, "tenant", tr.Tenant, "outcome", "routed")
			e.sample(tenantSamples, tr.Served, "replica", rep, "tenant", tr.Tenant, "outcome", "served")
			e.sample(tenantSamples, tr.Violations, "replica", rep, "tenant", tr.Tenant, "outcome", "violated")
			e.sample(tenantSamples, tr.Dropped, "replica", rep, "tenant", tr.Tenant, "outcome", "dropped")
		}
	}
	e.family("e3_fleet_tenant_goodput_per_sec", "gauge", "Goodput per (replica, tenant) stack.")
	for _, row := range fs.Rows {
		for _, tr := range row.Tenants {
			e.sample("e3_fleet_tenant_goodput_per_sec", tr.GoodputPS, "replica", strconv.Itoa(row.Index), "tenant", tr.Tenant)
		}
	}
	e.family("e3_fleet_tenant_burn_rate", "gauge", "Final-epoch SLO budget burn per (replica, tenant) stack.")
	for _, row := range fs.Rows {
		for _, tr := range row.Tenants {
			e.sample("e3_fleet_tenant_burn_rate", tr.BurnRate, "replica", strconv.Itoa(row.Index), "tenant", tr.Tenant)
		}
	}
}
