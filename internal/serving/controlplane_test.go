package serving

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/forecast"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/workload"
)

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestPlanEndpointEmptyHistory: without a control plane, /v1/plan has no
// provenance or replans blocks; with a fresh (empty) one, the replan block
// is present with an empty-but-non-null history.
func TestPlanEndpointEmptyHistory(t *testing.T) {
	api := testAPI(t)
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	var bare map[string]json.RawMessage
	getJSON(t, srv.URL+"/v1/plan", &bare)
	if _, ok := bare["provenance"]; ok {
		t.Error("provenance present without an attached control plane")
	}
	if _, ok := bare["replans"]; ok {
		t.Error("replans present without an attached control plane")
	}

	api.AttachControlPlane(&ControlPlane{Diffs: optimizer.NewDiffRing(4)})
	var resp PlanResponse
	getJSON(t, srv.URL+"/v1/plan", &resp)
	if resp.Replans == nil {
		t.Fatal("replans block missing")
	}
	if resp.Replans.Invocations != 0 || resp.Replans.HistoryTotal != 0 {
		t.Errorf("empty control plane reports activity: %+v", resp.Replans)
	}
	if resp.Replans.History == nil || len(resp.Replans.History) != 0 {
		t.Errorf("empty history must be [] not null/non-empty: %v", resp.Replans.History)
	}
}

// TestPlanEndpointPostReplan: provenance and the diff history round-trip
// through /v1/plan after replans.
func TestPlanEndpointPostReplan(t *testing.T) {
	api := testAPI(t)
	// Re-run the planner with provenance attached to get a real trace.
	plan, trace := replanFixture(t)
	ring := optimizer.NewDiffRing(4)
	d := optimizer.DiffPlans(optimizer.Plan{}, plan)
	d.Window, d.At, d.Reason = 0, 0, "initial plan"
	ring.Push(d)
	api.AttachControlPlane(&ControlPlane{
		Provenance: trace, Diffs: ring, Replans: 1, PlanChanges: 1,
	})

	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	var resp PlanResponse
	getJSON(t, srv.URL+"/v1/plan", &resp)
	if resp.Provenance == nil {
		t.Fatal("provenance missing post-replan")
	}
	if resp.Provenance.Objective != "max-goodput" || resp.Provenance.Winner == nil {
		t.Errorf("provenance incomplete: objective=%q winner=%v",
			resp.Provenance.Objective, resp.Provenance.Winner)
	}
	sum := 0
	for _, n := range resp.Provenance.Rejected {
		sum += n
	}
	if sum+resp.Provenance.Feasible != resp.Provenance.Enumerated {
		t.Errorf("provenance accounting broken over the wire: %d + %d != %d",
			sum, resp.Provenance.Feasible, resp.Provenance.Enumerated)
	}
	if resp.Replans == nil || len(resp.Replans.History) != 1 {
		t.Fatalf("replan history: %+v", resp.Replans)
	}
	h := resp.Replans.History[0]
	if !h.Changed || h.Reason != "initial plan" {
		t.Errorf("diff did not round-trip: %+v", h)
	}
}

// TestPlanEndpointRingWrap: a wrapped diff ring reports eviction and
// serves only the retained tail, oldest first.
func TestPlanEndpointRingWrap(t *testing.T) {
	api := testAPI(t)
	ring := optimizer.NewDiffRing(3)
	for i := 0; i < 7; i++ {
		ring.Push(optimizer.PlanDiff{Window: i, Changed: true, Reason: fmt.Sprintf("w%d", i)})
	}
	api.AttachControlPlane(&ControlPlane{Diffs: ring, Replans: 7, PlanChanges: 7, PlanCacheHits: 2, PlanCacheMisses: 5})
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	var resp PlanResponse
	getJSON(t, srv.URL+"/v1/plan", &resp)
	if resp.Replans.HistoryTotal != 7 || resp.Replans.HistoryEvicted != 4 {
		t.Errorf("wrap accounting: %+v", resp.Replans)
	}
	if resp.Replans.PlanCacheHits != 2 || resp.Replans.PlanCacheMisses != 5 {
		t.Errorf("plan-cache counters did not round-trip: %+v", resp.Replans)
	}
	if len(resp.Replans.History) != 3 {
		t.Fatalf("retained %d diffs", len(resp.Replans.History))
	}
	for i, d := range resp.Replans.History {
		if d.Window != i+4 {
			t.Errorf("history[%d] is window %d, want %d (oldest-first)", i, d.Window, i+4)
		}
	}
}

// TestMetricsControlPlaneSeries: the forecast and replan series appear
// with the attached values.
func TestMetricsControlPlaneSeries(t *testing.T) {
	api := testAPI(t)
	est := forecast.NewEstimator(2)
	est.Stats = forecast.NewStats(2)
	est.Method = forecast.MethodPersistence
	est.Observe(profFromSurv(1, 0.5))
	est.Predict()
	est.Observe(profFromSurv(1, 0.4))
	api.AttachControlPlane(&ControlPlane{
		Forecast: est.Stats, Diffs: optimizer.NewDiffRing(4), Replans: 3, PlanChanges: 2,
		PlanCacheHits: 5, PlanCacheMisses: 4,
	})
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	// MAE line: value is (0 + ~0.1)/2; parse rather than string-match the
	// float rendering.
	maeLine := ""
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "e3_forecast_mae ") {
			maeLine = line
		}
	}
	if maeLine == "" {
		t.Error("metrics missing e3_forecast_mae")
	} else {
		var v float64
		if _, err := fmt.Sscanf(maeLine, "e3_forecast_mae %g", &v); err != nil || v < 0.049 || v > 0.051 {
			t.Errorf("e3_forecast_mae = %q, want ~0.05", maeLine)
		}
	}
	for _, want := range []string{
		"e3_forecast_windows_total 1\n",
		"e3_forecast_safety_total{event=\"clamp\"} 0\n",
		"e3_forecast_safety_total{event=\"monotone-fix\"} 0\n",
		"e3_replan_invocations_total 3\n",
		"e3_replan_plan_changes_total 2\n",
		"e3_replan_plan_cache_hits_total 5\n",
		"e3_replan_plan_cache_misses_total 4\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func profFromSurv(surv ...float64) profile.Batch { return profile.NewBatch(surv) }

// replanFixture produces a traced plan for provenance round-trip tests.
func replanFixture(t *testing.T) (optimizer.Plan, *optimizer.SearchTrace) {
	t.Helper()
	tr := &optimizer.SearchTrace{}
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	prof := profile.FromDist(m, workload.Mix(0.8), 4000, 1)
	cfg := optimizer.NewConfig(m, prof, 8, cluster.Homogeneous(gpu.V100, 8), 0.1)
	cfg.Trace = tr
	plan, err := optimizer.MaximizeGoodput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return plan, tr
}
