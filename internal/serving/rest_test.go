package serving

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/workload"
)

func testAPI(t *testing.T) *API {
	t.Helper()
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	prof := profile.FromDist(m, workload.Mix(0.8), 4000, 1)
	plan, err := optimizer.MaximizeGoodput(optimizer.NewConfig(m, prof, 8, cluster.Homogeneous(gpu.V100, 8), 0.1))
	if err != nil {
		t.Fatal(err)
	}
	return NewAPI(m, plan)
}

func TestRESTHealth(t *testing.T) {
	srv := httptest.NewServer(testAPI(t).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

func TestRESTInfer(t *testing.T) {
	srv := httptest.NewServer(testAPI(t).Handler())
	defer srv.Close()

	post := func(difficulty float64) (InferResponse, int) {
		body, _ := json.Marshal(InferRequest{Difficulty: difficulty})
		resp, err := http.Post(srv.URL+"/v1/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out InferResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return out, resp.StatusCode
	}

	easy, code := post(0.1)
	if code != http.StatusOK {
		t.Fatalf("easy infer status %d", code)
	}
	if !easy.ExitedEarly || easy.ExitLayer >= 12 {
		t.Errorf("easy input did not exit early: %+v", easy)
	}
	hard, _ := post(0.99)
	if hard.ExitedEarly {
		t.Errorf("hard input exited early: %+v", hard)
	}
	if easy.PredictedLatencyMS >= hard.PredictedLatencyMS {
		t.Errorf("easy latency %v not below hard %v", easy.PredictedLatencyMS, hard.PredictedLatencyMS)
	}
	if easy.ServedBySplit > hard.ServedBySplit {
		t.Errorf("easy served by later split than hard")
	}
}

func TestRESTInferValidation(t *testing.T) {
	srv := httptest.NewServer(testAPI(t).Handler())
	defer srv.Close()

	// Out-of-range difficulty.
	body, _ := json.Marshal(InferRequest{Difficulty: 1.7})
	resp, err := http.Post(srv.URL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad difficulty status %d, want 400", resp.StatusCode)
	}

	// Malformed JSON.
	resp, err = http.Post(srv.URL+"/v1/infer", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json status %d, want 400", resp.StatusCode)
	}

	// Wrong method.
	resp, err = http.Get(srv.URL + "/v1/infer")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET infer status %d, want 405", resp.StatusCode)
	}
}

func TestRESTPlan(t *testing.T) {
	srv := httptest.NewServer(testAPI(t).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var plan PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
		t.Fatal(err)
	}
	if plan.Model != "DeeBERT" || plan.Batch != 8 || len(plan.Splits) == 0 {
		t.Errorf("plan response: %+v", plan)
	}
	// Splits cover the model contiguously.
	want := 1
	for _, s := range plan.Splits {
		if s.From != want {
			t.Fatalf("split coverage broken: %+v", plan.Splits)
		}
		want = s.To + 1
	}
	if want != 13 {
		t.Fatalf("splits end at %d, want 13", want)
	}
}

func TestRESTStats(t *testing.T) {
	api := testAPI(t)
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	for i := 0; i < 5; i++ {
		body, _ := json.Marshal(InferRequest{Difficulty: 0.3})
		resp, err := http.Post(srv.URL+"/v1/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Served != 5 {
		t.Errorf("served = %d, want 5", stats.Served)
	}
	total := 0
	for _, n := range stats.ExitCounts {
		total += n
	}
	if total != 5 {
		t.Errorf("exit counts sum to %d, want 5", total)
	}
	// Without a boot-time audit the breakdown is present but empty and the
	// audit block is omitted.
	if stats.DropReasons == nil || len(stats.DropReasons) != 0 {
		t.Errorf("drop_reasons = %v, want empty map", stats.DropReasons)
	}
	if stats.Audit != nil {
		t.Errorf("audit block present without AttachAudit: %+v", stats.Audit)
	}
}

func TestRESTStatsAuditBreakdown(t *testing.T) {
	api := testAPI(t)
	l := audit.NewLedger()
	l.Arrived(1, 0)
	l.Completed(1, 0.01, 12)
	l.Arrived(2, 0)
	l.Dropped(2, 0.02, audit.ReasonSLAFlush)
	l.Arrived(3, 0)
	l.Dropped(3, 0.03, audit.ReasonSLAFlush)
	rep := l.Verify()
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	api.AttachAudit(rep)

	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if got := stats.DropReasons[string(audit.ReasonSLAFlush)]; got != 2 {
		t.Errorf("drop_reasons[sla-flush] = %d, want 2", got)
	}
	if stats.Audit == nil {
		t.Fatal("audit block missing after AttachAudit")
	}
	if stats.Audit.Samples != 3 || stats.Audit.Completed != 1 || stats.Audit.Dropped != 2 || stats.Audit.Violations != 0 {
		t.Errorf("audit block = %+v, want {3 1 2 0}", stats.Audit)
	}
}
