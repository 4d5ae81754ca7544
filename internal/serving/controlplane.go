package serving

import (
	"fmt"
	"net/http"

	"e3/internal/forecast"
	"e3/internal/optimizer"
	"e3/internal/slo"
)

// ControlPlane bundles the control-plane observability state a server
// exposes: the last planner search's provenance, the forecaster's
// accuracy telemetry, and the bounded replan history. Any field may be nil; the
// endpoints render what is present.
type ControlPlane struct {
	// Provenance is the trace of the most recent planner search. A failed
	// search sets it too; a replan answered from the plan cache leaves it
	// as it was.
	Provenance *optimizer.SearchTrace
	// Forecast is the estimator's accuracy telemetry.
	Forecast *forecast.Stats
	// Diffs retains the recent plan-diff history; Replans counts planner
	// invocations and PlanChanges the ones that changed the deployment.
	Diffs       *optimizer.DiffRing
	Replans     int
	PlanChanges int
	// PlanCacheHits counts replans answered from the cross-window plan
	// cache; PlanCacheMisses the ones that ran a fresh search.
	PlanCacheHits   int
	PlanCacheMisses int
	// Budget is the replan loop's SLO error-budget accountant.
	Budget *slo.Budget
}

// AttachControlPlane exposes control-plane observability through /v1/plan
// (provenance + replan history) and /metrics (forecast accuracy, safety
// counters, replan counters).
func (a *API) AttachControlPlane(cp *ControlPlane) {
	a.mu.Lock()
	a.cp = cp
	a.mu.Unlock()
}

// ReplanJSON is the /v1/plan replan-history block.
type ReplanJSON struct {
	Invocations     int                  `json:"invocations"`
	PlanChanges     int                  `json:"plan_changes"`
	PlanCacheHits   int                  `json:"plan_cache_hits"`
	PlanCacheMisses int                  `json:"plan_cache_misses"`
	HistoryTotal    int                  `json:"history_total"`
	HistoryEvicted  int                  `json:"history_evicted"`
	History         []optimizer.PlanDiff `json:"history"`
}

// controlPlaneJSON renders the attached control plane into a plan
// response. Caller holds a.mu.
func (a *API) controlPlaneJSON(resp *PlanResponse) {
	if a.cp == nil {
		return
	}
	resp.Provenance = a.cp.Provenance
	rj := &ReplanJSON{
		Invocations:     a.cp.Replans,
		PlanChanges:     a.cp.PlanChanges,
		PlanCacheHits:   a.cp.PlanCacheHits,
		PlanCacheMisses: a.cp.PlanCacheMisses,
		HistoryTotal:    a.cp.Diffs.Total(),
		HistoryEvicted:  a.cp.Diffs.Evicted(),
		History:         []optimizer.PlanDiff{},
	}
	if items := a.cp.Diffs.Items(); items != nil {
		rj.History = items
	}
	resp.Replans = rj
}

// writeControlPlaneMetrics appends the forecast and replan series to a
// /metrics scrape. Caller holds a.mu.
func (a *API) writeControlPlaneMetrics(w http.ResponseWriter) {
	if a.cp == nil {
		return
	}
	if st := a.cp.Forecast; st != nil {
		fmt.Fprintln(w, "# HELP e3_forecast_mae Rolling mean absolute per-layer forecast error.")
		fmt.Fprintln(w, "# TYPE e3_forecast_mae gauge")
		fmt.Fprintf(w, "e3_forecast_mae %g\n", st.MAE())
		fmt.Fprintln(w, "# HELP e3_forecast_mape Rolling mean absolute percentage forecast error (fraction).")
		fmt.Fprintln(w, "# TYPE e3_forecast_mape gauge")
		fmt.Fprintf(w, "e3_forecast_mape %g\n", st.MAPE())
		fmt.Fprintln(w, "# HELP e3_forecast_windows_total Prediction/observation pairs scored.")
		fmt.Fprintln(w, "# TYPE e3_forecast_windows_total counter")
		fmt.Fprintf(w, "e3_forecast_windows_total %d\n", st.Windows())
		fmt.Fprintln(w, "# HELP e3_forecast_safety_total Forecast safety interventions by kind.")
		fmt.Fprintln(w, "# TYPE e3_forecast_safety_total counter")
		fmt.Fprintf(w, "e3_forecast_safety_total{event=\"clamp\"} %d\n", st.ClampHits())
		fmt.Fprintf(w, "e3_forecast_safety_total{event=\"fit-failure\"} %d\n", st.FitFailures())
		fmt.Fprintf(w, "e3_forecast_safety_total{event=\"monotone-fix\"} %d\n", st.MonotoneFixes())
		fmt.Fprintf(w, "e3_forecast_safety_total{event=\"persistence-fallback\"} %d\n", st.PersistenceFallbacks())
	}
	fmt.Fprintln(w, "# HELP e3_replan_invocations_total Planner invocations by the replan loop.")
	fmt.Fprintln(w, "# TYPE e3_replan_invocations_total counter")
	fmt.Fprintf(w, "e3_replan_invocations_total %d\n", a.cp.Replans)
	fmt.Fprintln(w, "# HELP e3_replan_plan_changes_total Replans that changed the deployment.")
	fmt.Fprintln(w, "# TYPE e3_replan_plan_changes_total counter")
	fmt.Fprintf(w, "e3_replan_plan_changes_total %d\n", a.cp.PlanChanges)
	fmt.Fprintln(w, "# HELP e3_replan_plan_cache_hits_total Replans answered from the cross-window plan cache.")
	fmt.Fprintln(w, "# TYPE e3_replan_plan_cache_hits_total counter")
	fmt.Fprintf(w, "e3_replan_plan_cache_hits_total %d\n", a.cp.PlanCacheHits)
	fmt.Fprintln(w, "# HELP e3_replan_plan_cache_misses_total Replans that ran a fresh plan search.")
	fmt.Fprintln(w, "# TYPE e3_replan_plan_cache_misses_total counter")
	fmt.Fprintf(w, "e3_replan_plan_cache_misses_total %d\n", a.cp.PlanCacheMisses)
	if b := a.cp.Budget; b != nil {
		fmt.Fprintln(w, "# HELP e3_slo_budget_target Attainment target the error budget is tracked against.")
		fmt.Fprintln(w, "# TYPE e3_slo_budget_target gauge")
		fmt.Fprintf(w, "e3_slo_budget_target %g\n", b.Target())
		fmt.Fprintln(w, "# HELP e3_slo_budget_windows_total Windows folded into the error budget.")
		fmt.Fprintln(w, "# TYPE e3_slo_budget_windows_total counter")
		fmt.Fprintf(w, "e3_slo_budget_windows_total %d\n", b.Windows())
		fmt.Fprintln(w, "# HELP e3_slo_budget_breaches_total Windows whose burn rate crossed the alert threshold.")
		fmt.Fprintln(w, "# TYPE e3_slo_budget_breaches_total counter")
		fmt.Fprintf(w, "e3_slo_budget_breaches_total %d\n", b.Breaches())
		last := b.Last()
		fmt.Fprintln(w, "# HELP e3_slo_budget_attainment Last window's SLO attainment fraction.")
		fmt.Fprintln(w, "# TYPE e3_slo_budget_attainment gauge")
		fmt.Fprintf(w, "e3_slo_budget_attainment %g\n", last.Attainment)
		fmt.Fprintln(w, "# HELP e3_slo_budget_burn_rate Last window's error-budget burn rate (1 = burning exactly the budget).")
		fmt.Fprintln(w, "# TYPE e3_slo_budget_burn_rate gauge")
		fmt.Fprintf(w, "e3_slo_budget_burn_rate %g\n", last.BurnRate)
		fmt.Fprintln(w, "# HELP e3_slo_budget_remaining Fraction of the cumulative error budget still unspent.")
		fmt.Fprintln(w, "# TYPE e3_slo_budget_remaining gauge")
		fmt.Fprintf(w, "e3_slo_budget_remaining %g\n", last.BudgetRemaining)
		fmt.Fprintln(w, "# HELP e3_slo_budget_exhaustion_seconds Projected seconds until budget exhaustion at the current burn rate (-1 = never).")
		fmt.Fprintln(w, "# TYPE e3_slo_budget_exhaustion_seconds gauge")
		fmt.Fprintf(w, "e3_slo_budget_exhaustion_seconds %g\n", last.ExhaustionIn)
	}
}
