package serving_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"e3/internal/httpapi"
)

func testFleetStatus(conserved bool) *httpapi.FleetStatus {
	return &httpapi.FleetStatus{
		Replicas: 2, Workers: 2, Epochs: 10,
		Minted: 100, Routed: 90, DoorShed: 10,
		Events: 5000, Conserved: conserved,
		Rows: []httpapi.FleetReplicaStatus{
			{Index: 0, GPUs: "4xV100", Events: 2600, Tenants: []httpapi.FleetTenantStatus{
				{Tenant: "bert", Routed: 50, Served: 48, Violations: 2, GoodputPS: 480, CapacityPS: 500, BurnRate: 0.4},
			}},
			{Index: 1, GPUs: "2xV100", Events: 2400, Tenants: []httpapi.FleetTenantStatus{
				{Tenant: "bert", Routed: 40, Served: 40, GoodputPS: 400, CapacityPS: 450, BurnRate: 0.1},
			}},
		},
	}
}

// TestHealthV1FleetRows checks the per-replica rows ride on /v1/health
// and that a conserved fleet leaves readiness intact.
func TestHealthV1FleetRows(t *testing.T) {
	srv := httptest.NewServer(bootAPI(t, httpapi.Boot{Fleet: testFleetStatus(true)}).Handler())
	defer srv.Close()

	var hr httpapi.HealthResponse
	if code := getJSONCode(t, srv.URL+"/v1/health", &hr); code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if !hr.Ready || hr.Fleet == nil {
		t.Fatalf("fleet health = %+v", hr)
	}
	if len(hr.Fleet.Rows) != 2 || hr.Fleet.Rows[0].Tenants[0].Tenant != "bert" {
		t.Fatalf("fleet rows = %+v", hr.Fleet.Rows)
	}
	if hr.Fleet.Minted != hr.Fleet.Routed+hr.Fleet.DoorShed {
		t.Fatalf("fleet block broke conservation arithmetic: %+v", hr.Fleet)
	}
}

// TestHealthV1FleetConservationGatesReadiness: a fleet run whose
// invariants failed must fail the probe.
func TestHealthV1FleetConservationGatesReadiness(t *testing.T) {
	srv := httptest.NewServer(bootAPI(t, httpapi.Boot{Fleet: testFleetStatus(false)}).Handler())
	defer srv.Close()

	var hr httpapi.HealthResponse
	if code := getJSONCode(t, srv.URL+"/v1/health", &hr); code != http.StatusServiceUnavailable {
		t.Fatalf("unconserved fleet: status %d, want 503", code)
	}
	if hr.Ready {
		t.Fatal("unconserved fleet reported ready")
	}
}

// TestMetricsFleetSeries checks the e3_fleet_* exposition.
func TestMetricsFleetSeries(t *testing.T) {
	srv := httptest.NewServer(bootAPI(t, httpapi.Boot{Fleet: testFleetStatus(true)}).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	wants := []string{
		`e3_fleet_replicas 2`,
		`e3_fleet_workers 2`,
		`e3_fleet_epochs_total 10`,
		`e3_fleet_samples_total{outcome="minted"} 100`,
		`e3_fleet_samples_total{outcome="door_shed"} 10`,
		`e3_fleet_events_total 5000`,
		`e3_fleet_conserved 1`,
		`e3_fleet_replica_events_total{replica="0",gpus="4xV100"} 2600`,
		`e3_fleet_tenant_samples_total{replica="1",tenant="bert",outcome="served"} 40`,
		`e3_fleet_tenant_goodput_per_sec{replica="0",tenant="bert"} 480`,
		`e3_fleet_tenant_burn_rate{replica="1",tenant="bert"} 0.1`,
	}
	for _, want := range wants {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Without a fleet attached, no e3_fleet_* series appear.
	bare := httptest.NewServer(testAPI(t).Handler())
	defer bare.Close()
	resp2, err := http.Get(bare.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if strings.Contains(string(body2), "e3_fleet_") {
		t.Error("e3_fleet_* series rendered with no fleet attached")
	}
}
