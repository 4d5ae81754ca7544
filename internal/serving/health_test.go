package serving

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"e3/internal/audit"
	"e3/internal/slo"
	"e3/internal/telemetry"
	"e3/internal/workload"
)

func getJSONCode(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestHealthV1PlanOnly(t *testing.T) {
	srv := httptest.NewServer(testAPI(t).Handler())
	defer srv.Close()
	var hr HealthResponse
	if code := getJSONCode(t, srv.URL+"/v1/health", &hr); code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if !hr.Ready || !hr.PlanLoaded || hr.PlanGPUs == 0 {
		t.Fatalf("plan-only health = %+v", hr)
	}
	// Absent subsystems must be absent, not failing.
	if hr.Audit != nil || hr.Replan != nil || hr.Budget != nil {
		t.Fatalf("absent subsystems rendered: %+v", hr)
	}
}

func TestHealthV1AuditVerdictGatesReadiness(t *testing.T) {
	led := audit.NewLedger()
	led.Arrived(1, 0)
	led.Queued(1, 0)
	led.Completed(1, 0.01, 4)
	rep := led.Verify()
	srv := httptest.NewServer(bootAPI(t, Boot{Audit: rep}).Handler())
	defer srv.Close()

	var hr HealthResponse
	if code := getJSONCode(t, srv.URL+"/v1/health", &hr); code != http.StatusOK {
		t.Fatalf("clean audit: status %d, want 200", code)
	}
	if hr.Audit == nil || !hr.Audit.OK {
		t.Fatalf("clean audit block = %+v", hr.Audit)
	}

	// A failing verdict must flip readiness to 503.
	rep.Violate("synthetic violation")
	if code := getJSONCode(t, srv.URL+"/v1/health", &hr); code != http.StatusServiceUnavailable {
		t.Fatalf("violated audit: status %d, want 503", code)
	}
	if hr.Ready || hr.Audit.OK || hr.Audit.Violations == 0 {
		t.Fatalf("violated audit health = %+v", hr)
	}
}

func TestHealthV1ReplanAliveAndBudget(t *testing.T) {
	bud := slo.NewBudget(0.99, 2.0)
	bud.ObserveWindow(0, 99, 1, 0, 2.0)
	// A control plane with zero invocations means the replan loop never
	// ran: not ready.
	cp := &ControlPlane{Budget: bud}
	srv := httptest.NewServer(bootAPI(t, Boot{ControlPlane: cp}).Handler())
	defer srv.Close()

	var hr HealthResponse
	if code := getJSONCode(t, srv.URL+"/v1/health", &hr); code != http.StatusServiceUnavailable {
		t.Fatalf("dead replan loop: status %d, want 503", code)
	}
	if hr.Ready || hr.Replan == nil || hr.Replan.Alive {
		t.Fatalf("dead replan health = %+v", hr)
	}
	if hr.Budget == nil || hr.Budget.Windows != 1 {
		t.Fatalf("budget block = %+v", hr.Budget)
	}

	cp.Replans = 3
	cp.PlanChanges = 2
	if code := getJSONCode(t, srv.URL+"/v1/health", &hr); code != http.StatusOK {
		t.Fatalf("live replan loop: status %d, want 200", code)
	}
	if !hr.Ready || !hr.Replan.Alive || hr.Replan.Invocations != 3 || hr.Replan.PlanChanges != 2 {
		t.Fatalf("live replan health = %+v", hr)
	}
}

func TestDebugBundleNoRecorder(t *testing.T) {
	srv := httptest.NewServer(testAPI(t).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no recorder: status %d, want 404", resp.StatusCode)
	}
}

func TestDebugBundleEmptyAndPostFailure(t *testing.T) {
	attr := slo.NewAttribution(4)
	rec := &slo.Recorder{Attr: attr}
	srv := httptest.NewServer(bootAPI(t, Boot{Recorder: rec}).Handler())
	defer srv.Close()

	// Attached but never triggered: 200 with zero triggers and no bundle.
	var br BundleResponse
	if code := getJSONCode(t, srv.URL+"/v1/debug/bundle", &br); code != http.StatusOK {
		t.Fatalf("empty recorder: status %d, want 200", code)
	}
	if br.Triggers != 0 || br.Bundle != nil {
		t.Fatalf("empty recorder body = %+v", br)
	}

	// After a failure trigger the bundle appears with its snapshots.
	s := workload.Sample{ID: 9, Arrival: 1.0}
	attr.Queued(s, 1.0)
	attr.Dispatched(s, 1.1, 0)
	attr.Executed(0, []workload.Sample{s}, 1.2, 1.4)
	attr.Completed(s, 1.5)
	rec.Trigger(slo.TriggerAuditViolation, "synthetic", 2.0)

	if code := getJSONCode(t, srv.URL+"/v1/debug/bundle", &br); code != http.StatusOK {
		t.Fatalf("post-failure: status %d, want 200", code)
	}
	if br.Triggers != 1 || br.Bundle == nil {
		t.Fatalf("post-failure body = %+v", br)
	}
	if br.Bundle.Trigger.Reason != slo.TriggerAuditViolation || br.Bundle.Trigger.Detail != "synthetic" {
		t.Fatalf("trigger = %+v", br.Bundle.Trigger)
	}
	if br.Bundle.Attribution == nil || br.Bundle.Attribution.Attributed != 1 {
		t.Fatalf("attribution snapshot = %+v", br.Bundle.Attribution)
	}
}

func TestDebugBundleRingWrap(t *testing.T) {
	// A recorder over a small ring must serve only the ring's tail and
	// report what the ring evicted, keeping the endpoint bounded.
	tr := telemetry.NewRing(8)
	for i := 0; i < 100; i++ {
		tr.Execute("g0", "V100", 0, 4, float64(i), float64(i)+0.5)
	}
	rec := &slo.Recorder{Spans: tr}
	rec.Trigger(slo.TriggerEngineAbort, "wrap", 100.0)
	srv := httptest.NewServer(bootAPI(t, Boot{Recorder: rec}).Handler())
	defer srv.Close()

	var br BundleResponse
	if code := getJSONCode(t, srv.URL+"/v1/debug/bundle", &br); code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	b := br.Bundle
	if b == nil || len(b.Spans) != 8 || b.SpansTotal != 100 || b.SpansDropped != 92 {
		t.Fatalf("ring-wrap bundle spans = %+v", b)
	}
	if b.Spans[7].Start != 99 {
		t.Fatalf("bundle tail must end at the newest span, got start %v", b.Spans[3].Start)
	}
}
