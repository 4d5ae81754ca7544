package httpapi

// Readiness and flight-recorder endpoints. /v1/health is the machine-
// readable readiness probe a fleet registry polls (plan loaded, replan
// loop alive, last-audit verdict, error-budget state); /v1/debug/bundle
// serves the flight recorder's most recent diagnostic bundle.

import (
	"net/http"

	"e3/internal/slo"
)

// HealthAudit is the last audit run's verdict.
type HealthAudit struct {
	OK         bool `json:"ok"`
	Samples    int  `json:"samples"`
	Violations int  `json:"violations"`
}

// HealthFlame is the last flame reconciliation's verdict: whether the
// compute profile accounted for every device's busy and idle time exactly
// (zero integer-nanosecond residual against the utilization ledger).
type HealthFlame struct {
	OK            bool  `json:"ok"`
	Devices       int   `json:"devices"`
	ResidualNanos int64 `json:"residual_nanos"`
}

// HealthReplan reports the replan loop's state.
type HealthReplan struct {
	// Alive marks a control plane whose loop has completed at least one
	// planner invocation.
	Alive       bool `json:"alive"`
	Invocations int  `json:"invocations"`
	PlanChanges int  `json:"plan_changes"`
}

// HealthResponse is the /v1/health body. Ready is the single bit a load
// balancer keys on; the component blocks explain it.
type HealthResponse struct {
	Ready      bool   `json:"ready"`
	Model      string `json:"model"`
	PlanLoaded bool   `json:"plan_loaded"`
	PlanGPUs   int    `json:"plan_gpus"`

	Audit  *HealthAudit        `json:"audit,omitempty"`
	Flame  *HealthFlame        `json:"flame,omitempty"`
	Replan *HealthReplan       `json:"replan,omitempty"`
	Budget *slo.BudgetSnapshot `json:"slo_budget,omitempty"`
	Fleet  *FleetStatus        `json:"fleet,omitempty"`
}

// handleHealthV1 reports readiness: 200 when the plan is loaded, any
// attached audit verdict is clean, and any attached replan loop has run;
// 503 otherwise. Optional subsystems that are simply absent do not fail
// the probe — a server booted without -audit is still ready.
func (a *API) handleHealthV1(w http.ResponseWriter, _ *http.Request) {
	a.mu.Lock()
	defer a.mu.Unlock()
	resp := HealthResponse{
		Model:      a.model.Name,
		PlanLoaded: len(a.plan.Splits) > 0,
		PlanGPUs:   a.plan.GPUs,
	}
	ready := resp.PlanLoaded
	if rep := a.boot.Audit; rep != nil {
		resp.Audit = &HealthAudit{
			OK:         rep.OK(),
			Samples:    rep.Samples,
			Violations: len(rep.Violations),
		}
		ready = ready && resp.Audit.OK
	}
	if stat := a.boot.FlameStat; stat.Checked {
		resp.Flame = &HealthFlame{
			OK:            stat.OK(),
			Devices:       stat.Devices,
			ResidualNanos: stat.Residual,
		}
		ready = ready && resp.Flame.OK
	}
	if cp := a.boot.ControlPlane; cp != nil {
		// A provenance-only control plane (static boot plan, no replan
		// loop configured) carries no loop artifacts; only gate readiness
		// on loop liveness when the loop was supposed to run.
		loopConfigured := cp.Replans > 0 || cp.PlanChanges > 0 ||
			cp.Forecast != nil || cp.Diffs != nil || cp.Budget != nil
		if loopConfigured {
			resp.Replan = &HealthReplan{
				Alive:       cp.Replans > 0,
				Invocations: cp.Replans,
				PlanChanges: cp.PlanChanges,
			}
			ready = ready && resp.Replan.Alive
		}
		resp.Budget = cp.Budget.Snapshot()
	}
	if fs := a.boot.Fleet; fs != nil {
		// The fleet block carries one row per replica; a run whose
		// conservation invariants failed is not servable.
		resp.Fleet = fs
		ready = ready && fs.Conserved
	}
	resp.Ready = ready
	if !ready {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, resp)
}

// BundleResponse is the /v1/debug/bundle body: how many triggers have
// fired and, when at least one has, the most recent bundle.
type BundleResponse struct {
	Triggers int         `json:"triggers"`
	Bundle   *slo.Bundle `json:"bundle,omitempty"`
}

// handleDebugBundle serves the flight recorder's most recent diagnostic
// bundle. 404 when no recorder is attached; an attached recorder with no
// triggers yet returns {"triggers": 0}.
func (a *API) handleDebugBundle(w http.ResponseWriter, _ *http.Request) {
	a.mu.Lock()
	defer a.mu.Unlock()
	rec := a.boot.Recorder
	if rec == nil {
		http.Error(w, "no flight recorder attached", http.StatusNotFound)
		return
	}
	writeJSON(w, BundleResponse{
		Triggers: rec.TriggerCount(),
		Bundle:   rec.Last(),
	})
}
