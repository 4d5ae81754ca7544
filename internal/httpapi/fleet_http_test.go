package httpapi

import (
	"testing"

	"e3/internal/fleet"
)

// TestFleetStatusOf checks the status rows a fleet run summarizes into:
// one row per replica, tenant rows that add up to the run's totals, and
// Conserved re-derived from Verify, so a Result that leaks at the door
// reads unconserved.
func TestFleetStatusOf(t *testing.T) {
	cfg := fleet.DemoConfig(2, 1)
	cfg.Horizon = 4
	res, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := FleetStatusOf(res)
	if fs.Replicas != 2 || len(fs.Rows) != 2 || fs.Workers != 1 {
		t.Fatalf("replicas %d, rows %d, workers %d; want 2, 2, 1", fs.Replicas, len(fs.Rows), fs.Workers)
	}
	if !fs.Conserved || fs.Minted != fs.Routed+fs.DoorShed || fs.Minted == 0 {
		t.Fatalf("status %+v: want a conserved run with traffic", *fs)
	}
	var routed int
	var events uint64
	for i, row := range fs.Rows {
		if row.Index != i || len(row.Tenants) != len(cfg.Tenants) {
			t.Errorf("row %d: index %d with %d tenants, want %d", i, row.Index, len(row.Tenants), len(cfg.Tenants))
		}
		events += row.Events
		for _, tr := range row.Tenants {
			routed += tr.Routed
		}
	}
	if routed != fs.Routed || events != fs.Events {
		t.Errorf("rows route %d and process %d events; the run routed %d and processed %d", routed, events, fs.Routed, fs.Events)
	}

	res.Routed++
	if FleetStatusOf(res).Conserved {
		t.Error("a door leak reads conserved")
	}
}
