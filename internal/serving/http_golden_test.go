package serving

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"e3/internal/audit"
	"e3/internal/flame"
	"e3/internal/forecast"
	"e3/internal/optimizer"
	"e3/internal/slo"
)

const httpGoldenPath = "testdata/http.golden"

// goldenPaths are the bodies http.golden pins, in file order.
var goldenPaths = []string{
	"/metrics",
	"/v1/health",
	"/v1/plan",
	"/v1/stats",
	"/v1/trace",
	"/v1/flame",
	"/v1/flame?format=folded",
	"/v1/debug/bundle",
}

// escapedReason is a drop reason whose /metrics label value needs every
// escape: a double quote, a backslash and a newline.
const escapedReason = "quota \"gold\"\\tier\nB"

// goldenAPI builds an API with every boot part present: a tracer with
// drops under two reasons (one needing label escaping), a control plane
// with forecast stats, one plan diff and a budget, a flame profile and
// its reconcile stat, a 2-replica × 2-tenant fleet, a recorder with one
// trigger, and an audit report.
func goldenAPI(t *testing.T) *API {
	t.Helper()
	tr := testTracer(0)
	tr.Drop(escapedReason)

	led := audit.NewLedger()
	led.Arrived(1, 0)
	led.Queued(1, 0)
	led.Completed(1, 0.01, 4)
	led.Arrived(2, 0)
	led.Dropped(2, 0.02, audit.ReasonAdmission)

	est := forecast.NewEstimator(2)
	est.Stats = forecast.NewStats(2)
	est.Method = forecast.MethodPersistence
	est.Observe(profFromSurv(1, 0.5))
	est.Predict()
	est.Observe(profFromSurv(1, 0.4))
	plan, provenance := replanFixture(t)
	diffs := optimizer.NewDiffRing(4)
	d := optimizer.DiffPlans(optimizer.Plan{}, plan)
	d.Window, d.At, d.Reason = 0, 0, "initial plan"
	diffs.Push(d)
	bud := slo.NewBudget(0.99, 2.0)
	bud.ObserveWindow(0, 95, 3, 2, 2.0)

	prof := flame.FromSpans(tr.Spans())
	stat := flame.ReconcileStat{Devices: 2, BusyNanos: prof.BusyNanos(), BubbleNanos: prof.BubbleNanos(), Checked: true}

	fs := &FleetStatus{
		Replicas: 2, Workers: 2, Epochs: 10,
		Minted: 100, Routed: 90, DoorShed: 10,
		Events: 5000, Conserved: true,
	}
	for i, gpus := range []string{"K80=4,V100=2", "V100=4"} {
		fs.Rows = append(fs.Rows, FleetReplicaStatus{Index: i, GPUs: gpus, Events: uint64(2600 - 200*i), Tenants: []FleetTenantStatus{
			{Tenant: "bert", Routed: 30, Served: 28 - i, Violations: 1 + i, Dropped: 1, GoodputPS: 280.5, CapacityPS: 300, BurnRate: 0.25},
			{Tenant: "resnet", Routed: 15, Served: 15, GoodputPS: 150, CapacityPS: 200, BurnRate: 0},
		}})
	}

	attr := slo.NewAttribution(4)
	rec := &slo.Recorder{Spans: tr, Diffs: diffs, Forecast: est.Stats, Ledger: led, Budget: bud, Attr: attr}
	rec.Trigger(slo.TriggerAuditViolation, "synthetic", 2.0)

	return bootAPI(t, Boot{
		Audit:  led.Verify(),
		Tracer: tr,
		ControlPlane: &ControlPlane{
			Provenance: provenance, Forecast: est.Stats, Diffs: diffs,
			Replans: 3, PlanChanges: 1, PlanCacheHits: 1, PlanCacheMisses: 2, Budget: bud,
		},
		Recorder:  rec,
		Flame:     prof,
		FlameStat: stat,
		Fleet:     fs,
	})
}

// goldenBodies serves goldenAPI, makes one /v1/infer call, and returns
// each goldenPaths body with its status code.
func goldenBodies(t *testing.T) map[string]string {
	t.Helper()
	srv := httptest.NewServer(goldenAPI(t).Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/infer", "application/json", strings.NewReader(`{"difficulty":0.3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/infer status %d", resp.StatusCode)
	}
	out := make(map[string]string, len(goldenPaths))
	for _, p := range goldenPaths {
		body, code := get(t, srv.URL+p)
		out[p] = fmt.Sprintf("%d\n%s", code, body)
	}
	return out
}

// TestHTTPGolden pins every response body of a fully attached API after
// one inference, byte for byte. Regenerate with `go test
// ./internal/serving/ -run TestHTTPGolden -update` only for an intended
// change to the HTTP edge.
func TestHTTPGolden(t *testing.T) {
	bodies := goldenBodies(t)
	var got bytes.Buffer
	for _, p := range goldenPaths {
		fmt.Fprintf(&got, "== GET %s\n%s\n", p, bodies[p])
	}
	if *update {
		if err := os.WriteFile(httpGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(httpGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got %q\nwant %q", httpGoldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", httpGoldenPath, len(gl), len(wl))
	}
}
