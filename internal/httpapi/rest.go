// Package httpapi is e3-serve's HTTP/JSON API, mirroring the TorchServe
// REST front end the paper's implementation uses (§4): live inference,
// the plan with its provenance, the boot runs' audit, telemetry, flame
// profile and fleet status, readiness, and Prometheus /metrics. It sits
// above serving and fleet and only cmd/e3-serve imports it, so net/http
// (and through net, cgo and a dynamic libc) stays out of every
// simulation binary.
package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"e3/internal/audit"
	"e3/internal/ee"
	"e3/internal/flame"
	"e3/internal/metrics"
	"e3/internal/optimizer"
	"e3/internal/serving"
	"e3/internal/slo"
	"e3/internal/telemetry"
)

// API serves E3 inference over HTTP/JSON, mirroring the TorchServe REST
// front end the paper's implementation uses (§4). Inference requests carry
// the input's difficulty (the simulation's stand-in for input content);
// the response reports the exit decision and the plan-predicted latency.
type API struct {
	// net/http runs each handler on its own goroutine, so the REST edge is
	// the one place in the server that is genuinely concurrent. The mutex
	// guards the live /v1/infer counters and serializes the handlers'
	// reads of the boot parts, whose types are not safe for concurrent
	// use (/v1/flame alone reads unlocked: a profile is immutable); it
	// never guards event-loop state.
	mu    sync.Mutex
	model *ee.EEModel
	plan  optimizer.Plan
	boot  Boot

	served     int
	exitCounts map[int]int
	// inferLat buckets the plan-predicted latency of live requests for the
	// /metrics histogram (fixed buckets: a scrape never walks per-request
	// state).
	inferLat *metrics.Histogram
}

// Boot is what a server's boot runs leave for the API to expose. Every
// part is optional: a nil part's blocks and /metrics sections are absent.
type Boot struct {
	// Audit is a boot-time audit run's verified lifecycle report
	// (/v1/stats, and its verdict gates /v1/health).
	Audit *audit.Report
	// Tracer holds the boot run's spans and histograms (/metrics,
	// /v1/trace).
	Tracer *telemetry.Tracer
	// ControlPlane is the planner provenance, forecast telemetry and
	// replan history (/v1/plan, /metrics, /v1/health).
	ControlPlane *serving.ControlPlane
	// Recorder is the flight recorder behind /v1/debug/bundle.
	Recorder *slo.Recorder
	// Flame is the boot run's virtual-time compute profile (/v1/flame,
	// /metrics); FlameStat is its exact-reconcile verdict, which also
	// gates /v1/health.
	Flame     *flame.Profile
	FlameStat flame.ReconcileStat
	// Fleet is a boot-time fleet run's status (/v1/health rows and the
	// e3_fleet_* series).
	Fleet *FleetStatus
}

// NewAPI builds the handler set for a planned model and the parts its
// boot runs produced.
func NewAPI(m *ee.EEModel, plan optimizer.Plan, boot Boot) *API {
	return &API{
		model: plan.ExecModel(m), plan: plan, boot: boot, exitCounts: make(map[int]int),
		inferLat: metrics.NewLogHistogram(1e-4, 10.0, 40),
	}
}

// Handler returns the routed HTTP handler.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", a.handleHealth)
	mux.HandleFunc("/v1/infer", a.handleInfer)
	mux.HandleFunc("/v1/plan", a.handlePlan)
	mux.HandleFunc("/v1/stats", a.handleStats)
	mux.HandleFunc("/v1/trace", a.handleTrace)
	mux.HandleFunc("/v1/health", a.handleHealthV1)
	mux.HandleFunc("/v1/flame", a.handleFlameV1)
	mux.HandleFunc("/v1/debug/bundle", a.handleDebugBundle)
	mux.HandleFunc("/metrics", a.handleMetrics)
	return mux
}

func (a *API) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// InferRequest is the /v1/infer body.
type InferRequest struct {
	// Difficulty in [0,1] stands in for the input content; real
	// deployments derive it from the model's own ramp confidences.
	Difficulty float64 `json:"difficulty"`
}

// InferResponse reports the exit decision.
type InferResponse struct {
	ExitLayer          int     `json:"exit_layer"`
	TotalLayers        int     `json:"total_layers"`
	ExitedEarly        bool    `json:"exited_early"`
	ServedBySplit      int     `json:"served_by_split"`
	PredictedLatencyMS float64 `json:"predicted_latency_ms"`
}

// maxInferBody caps a /v1/infer body; a valid one is a few dozen bytes.
const maxInferBody = 4 << 10

func (a *API) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req InferRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxInferBody))
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		http.Error(w, "bad request: body must hold exactly one JSON object", http.StatusBadRequest)
		return
	}
	if req.Difficulty < 0 || req.Difficulty > 1 {
		http.Error(w, "difficulty must be in [0,1]", http.StatusBadRequest)
		return
	}
	exit := a.model.ExitLayerFor(req.Difficulty)
	lat := 0.0
	splitIdx := 0
	for i, s := range a.plan.Splits {
		lat += s.StageTime
		splitIdx = i
		if exit <= s.To {
			break
		}
		lat += s.CommTime
	}
	a.mu.Lock()
	a.served++
	a.exitCounts[exit]++
	a.inferLat.Observe(lat)
	a.mu.Unlock()

	writeJSON(w, InferResponse{
		ExitLayer:          exit,
		TotalLayers:        a.model.Base.NumLayers(),
		ExitedEarly:        exit < a.model.Base.NumLayers(),
		ServedBySplit:      splitIdx,
		PredictedLatencyMS: lat * 1e3,
	})
}

// PlanResponse summarizes the active plan, plus — when a control plane is
// attached — the plan's search provenance and the replan history.
type PlanResponse struct {
	Model     string      `json:"model"`
	Batch     int         `json:"batch"`
	GoodputPS float64     `json:"goodput_per_sec"`
	LatencyMS float64     `json:"latency_ms"`
	GPUs      int         `json:"gpus"`
	CostPerS  float64     `json:"cost_per_sec_usd"`
	Splits    []SplitJSON `json:"splits"`

	Provenance *optimizer.SearchTrace `json:"provenance,omitempty"`
	Replans    *ReplanJSON            `json:"replans,omitempty"`
}

// SplitJSON is one planned split.
type SplitJSON struct {
	From     int    `json:"from"`
	To       int    `json:"to"`
	Kind     string `json:"gpu"`
	Replicas int    `json:"replicas"`
}

func (a *API) handlePlan(w http.ResponseWriter, _ *http.Request) {
	a.mu.Lock()
	defer a.mu.Unlock()
	resp := PlanResponse{
		Model:     a.model.Name,
		Batch:     a.plan.Batch,
		GoodputPS: a.plan.Goodput,
		LatencyMS: a.plan.Latency * 1e3,
		GPUs:      a.plan.GPUs,
		CostPerS:  a.plan.CostPerSec,
	}
	for _, s := range a.plan.Splits {
		resp.Splits = append(resp.Splits, SplitJSON{From: s.From, To: s.To, Kind: string(s.Kind), Replicas: s.Replicas})
	}
	a.controlPlaneJSON(&resp)
	writeJSON(w, resp)
}

// AuditJSON summarizes a conservation audit for /v1/stats.
type AuditJSON struct {
	Samples    int `json:"samples"`
	Completed  int `json:"completed"`
	Dropped    int `json:"dropped"`
	Violations int `json:"violations"`
}

// StatsResponse reports live counters plus, when the server booted with
// -audit, the lifecycle ledger's per-reason drop breakdown and verdict.
type StatsResponse struct {
	Served      int            `json:"served"`
	ExitCounts  map[int]int    `json:"exit_counts"`
	DropReasons map[string]int `json:"drop_reasons"`
	Audit       *AuditJSON     `json:"audit,omitempty"`
}

func (a *API) handleStats(w http.ResponseWriter, _ *http.Request) {
	a.mu.Lock()
	defer a.mu.Unlock()
	counts := make(map[int]int, len(a.exitCounts))
	for k, v := range a.exitCounts {
		counts[k] = v
	}
	resp := StatsResponse{Served: a.served, ExitCounts: counts, DropReasons: map[string]int{}}
	if rep := a.boot.Audit; rep != nil {
		for reason, n := range rep.ByReason {
			resp.DropReasons[string(reason)] = n
		}
		resp.Audit = &AuditJSON{
			Samples:    rep.Samples,
			Completed:  rep.Completed,
			Dropped:    rep.Dropped,
			Violations: len(rep.Violations),
		}
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
