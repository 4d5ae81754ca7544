package httpapi

// /v1/flame serves the boot-time traced run's virtual-time compute
// profile. Unlike -pprof (wall-clock CPU/heap profiles of the server
// process itself), this answers "where did the simulated fleet's
// GPU-seconds go" — the profile is bounded (it is a finished fold, not a
// growing log), so serving it is O(stacks) per request.

import (
	"net/http"

	"e3/internal/flame"
)

// FlameResponse is the default (JSON) /v1/flame body.
type FlameResponse struct {
	Reconcile flame.ReconcileStat `json:"reconcile"`
	Profile   *flame.Profile      `json:"profile"`
}

// writeFlameMetrics emits the e3_flame_* rollup series for /metrics:
// per-leaf busy weight, per-cause bubble weight, and the reconcile
// verdict. Silent when no profile is attached. The caller holds a.mu.
func (a *API) writeFlameMetrics(e expo) {
	if a.boot.Flame == nil {
		return
	}
	busy, bubble := a.boot.Flame.Rollup()
	e.family("e3_flame_busy_nanos_total", "counter", "Virtual busy nanoseconds of the profiled run by leaf frame.")
	for _, class := range sortedKeys(busy) {
		e.sample("e3_flame_busy_nanos_total", busy[class], "class", class)
	}
	e.family("e3_flame_bubble_nanos_total", "counter", "Virtual idle nanoseconds of the profiled run by bubble cause.")
	for _, cause := range sortedKeys(bubble) {
		e.sample("e3_flame_bubble_nanos_total", bubble[cause], "cause", cause)
	}
	stat := a.boot.FlameStat
	e.one("e3_flame_reconcile_ok", "gauge", "Whether the flame profile reconciled exactly against the ledger.", stat.OK())
	e.one("e3_flame_residual_nanos", "gauge", "Total integer disagreement of the flame reconcile.", stat.Residual)
}

// handleFlameV1 serves the attached profile. ?format=folded returns
// collapsed-stack text, ?format=pprof a gzip profile.proto (loadable in
// `go tool pprof`); the default is the JSON summary with the reconcile
// verdict. 404 when the server booted without profiling.
func (a *API) handleFlameV1(w http.ResponseWriter, r *http.Request) {
	prof := a.boot.Flame
	if prof == nil {
		http.Error(w, "no compute profile attached", http.StatusNotFound)
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "json":
		writeJSON(w, FlameResponse{Reconcile: a.boot.FlameStat, Profile: prof})
	case "folded":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(prof.Folded())
	case "pprof":
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := prof.WritePprof(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	default:
		http.Error(w, "format must be json, folded, or pprof", http.StatusBadRequest)
	}
}
