package replan

import (
	"e3/internal/optimizer"
	"e3/internal/profile"
)

// The cross-window plan cache holds a handful of operating points, enough
// for the profiles a drifting workload revisits. Its 2% survival tolerance
// matches the planner's own exit-mass threshold: forecasts closer than
// that produce indistinguishable plans in practice.
const (
	planCacheSize = 16
	planCacheTol  = 0.02
)

// cachedPlan is one searched plan: the device pool it was searched on
// (keyed by inventory), the forecast it was searched for, and the winner.
type cachedPlan struct {
	inv      string
	forecast profile.Batch
	plan     optimizer.Plan
}

// lookup answers a replan from the cache. Within one run the planning
// problem varies only in the forecast and the device pool, so those are
// the key: it takes the oldest entry searched on a pool with inventory
// inv whose forecast is within planCacheTol of pred at every layer (the
// loop's drift metric). Matching by proximity, not by a quantized key,
// keeps a stable workload's wobbling forecasts on one entry. The outcome
// feeds the run's hit and miss counters.
func (l *loop) lookup(inv string, pred profile.Batch) (optimizer.Plan, bool) {
	for _, e := range l.cache {
		if e.inv == inv && pred.MaxAbsDiff(e.forecast) <= planCacheTol {
			l.res.PlanCacheHits++
			return e.plan, true
		}
	}
	l.res.PlanCacheMisses++
	return optimizer.Plan{}, false
}

// store memoizes a freshly searched plan, evicting the oldest entry once
// planCacheSize are held.
func (l *loop) store(inv string, pred profile.Batch, p optimizer.Plan) {
	if len(l.cache) == planCacheSize {
		l.cache = l.cache[1:]
	}
	l.cache = append(l.cache, cachedPlan{inv: inv, forecast: pred, plan: p})
}
