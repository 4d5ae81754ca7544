package serving

import (
	"e3/internal/forecast"
	"e3/internal/optimizer"
	"e3/internal/slo"
)

// ControlPlane bundles the control-plane observability state a server
// exposes: the last planner search's provenance, the forecaster's
// accuracy telemetry, and the bounded replan history. Any field may be nil; the
// endpoints (internal/httpapi) render what is present.
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
