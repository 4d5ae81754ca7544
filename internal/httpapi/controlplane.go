package httpapi

import "e3/internal/optimizer"

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
	cp := a.boot.ControlPlane
	if cp == nil {
		return
	}
	resp.Provenance = cp.Provenance
	rj := &ReplanJSON{
		Invocations:     cp.Replans,
		PlanChanges:     cp.PlanChanges,
		PlanCacheHits:   cp.PlanCacheHits,
		PlanCacheMisses: cp.PlanCacheMisses,
		HistoryTotal:    cp.Diffs.Total(),
		HistoryEvicted:  cp.Diffs.Evicted(),
		History:         []optimizer.PlanDiff{},
	}
	if items := cp.Diffs.Items(); items != nil {
		rj.History = items
	}
	resp.Replans = rj
}

// writeControlPlaneMetrics appends the forecast, replan and error-budget
// series to a /metrics scrape. Caller holds a.mu.
func (a *API) writeControlPlaneMetrics(e expo) {
	cp := a.boot.ControlPlane
	if cp == nil {
		return
	}
	if st := cp.Forecast; st != nil {
		e.one("e3_forecast_mae", "gauge", "Rolling mean absolute per-layer forecast error.", st.MAE())
		e.one("e3_forecast_mape", "gauge", "Rolling mean absolute percentage forecast error (fraction).", st.MAPE())
		e.one("e3_forecast_windows_total", "counter", "Prediction/observation pairs scored.", st.Windows())
		e.family("e3_forecast_safety_total", "counter", "Forecast safety interventions by kind.")
		e.sample("e3_forecast_safety_total", st.ClampHits(), "event", "clamp")
		e.sample("e3_forecast_safety_total", st.FitFailures(), "event", "fit-failure")
		e.sample("e3_forecast_safety_total", st.MonotoneFixes(), "event", "monotone-fix")
		e.sample("e3_forecast_safety_total", st.PersistenceFallbacks(), "event", "persistence-fallback")
	}
	e.one("e3_replan_invocations_total", "counter", "Planner invocations by the replan loop.", cp.Replans)
	e.one("e3_replan_plan_changes_total", "counter", "Replans that changed the deployment.", cp.PlanChanges)
	e.one("e3_replan_plan_cache_hits_total", "counter", "Replans answered from the cross-window plan cache.", cp.PlanCacheHits)
	e.one("e3_replan_plan_cache_misses_total", "counter", "Replans that ran a fresh plan search.", cp.PlanCacheMisses)
	if b := cp.Budget; b != nil {
		last := b.Last()
		e.one("e3_slo_budget_target", "gauge", "Attainment target the error budget is tracked against.", b.Target())
		e.one("e3_slo_budget_windows_total", "counter", "Windows folded into the error budget.", b.Windows())
		e.one("e3_slo_budget_breaches_total", "counter", "Windows whose burn rate crossed the alert threshold.", b.Breaches())
		e.one("e3_slo_budget_attainment", "gauge", "Last window's SLO attainment fraction.", last.Attainment)
		e.one("e3_slo_budget_burn_rate", "gauge", "Last window's error-budget burn rate (1 = burning exactly the budget).", last.BurnRate)
		e.one("e3_slo_budget_remaining", "gauge", "Fraction of the cumulative error budget still unspent.", last.BudgetRemaining)
		e.one("e3_slo_budget_exhaustion_seconds", "gauge", "Projected seconds until budget exhaustion at the current burn rate (-1 = never).", last.ExhaustionIn)
	}
}
