package replan

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"e3/internal/gpu"
	"e3/internal/optimizer"
)

// Plan-cache defaults: a handful of distinct operating points covers the
// profiles a drifting workload revisits, and a 2% survival tolerance
// matches the planner's own MinExitFrac default — forecasts closer than
// that produce indistinguishable plans in practice.
const (
	DefaultPlanCacheSize      = 16
	DefaultPlanCacheTolerance = 0.02
)

// cacheEntry is one memoized planning outcome: the non-profile problem
// fingerprint, the exact forecast the plan was computed for, and the plan.
type cacheEntry struct {
	confKey string
	profile []float64
	plan    optimizer.Plan
}

// PlanCache memoizes winning plans across scheduling windows. A lookup
// hits when an entry was solved for the identical planning problem — same
// model identity and active ramps, batch, SLO, knobs, and cluster
// inventory — and a predicted exit profile within a per-layer tolerance.
// Workloads that oscillate between operating points (diurnal mixes,
// alternating tenants) re-reach such profiles, and the cache answers those
// replans without a search.
//
// Matching is by proximity rather than by quantized fingerprint because
// window-to-window forecasts wobble a little even when the workload is
// stable; bin-edge flapping would defeat an exact-key cache precisely in
// the steady states it exists for. Lookup scans insertion order and takes
// the first match, so runs stay deterministic.
//
// The cache is FIFO-bounded and deliberately lock-free: replan's control
// loop runs on the single-threaded sim clock, so there is nothing to
// synchronize.
type PlanCache struct {
	tol     float64
	cap     int
	entries []cacheEntry // insertion order, oldest first (FIFO eviction)

	// Hits and Misses count Lookup outcomes over the cache's lifetime.
	Hits, Misses int
}

// NewPlanCache builds a cache holding up to capacity plans with the given
// per-layer profile tolerance.
func NewPlanCache(capacity int, tolerance float64) *PlanCache {
	return &PlanCache{tol: tolerance, cap: capacity}
}

// configKey fingerprints everything the planner sees except the profile.
func configKey(cfg optimizer.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|L%d|b%d|slo%.9g|slack%.9g|minexit%.9g|splits%d|cands%d|p%t|mp%t|w%t",
		cfg.Model.Name, cfg.Model.Base.NumLayers(), cfg.Batch,
		cfg.SLO, cfg.SlackFrac, cfg.MinExitFrac,
		cfg.MaxSplits, cfg.MaxBoundaryCands,
		cfg.Pipelining, cfg.ModelParallel, cfg.DisableInteriorRamps)
	b.WriteString("|ramps")
	for _, r := range cfg.Model.ActiveRamps() {
		fmt.Fprintf(&b, ",%d", r)
	}
	b.WriteString("|cluster")
	counts := cfg.Cluster.Counts()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, ",%s=%d", k, counts[gpu.Kind(k)])
	}
	return b.String()
}

// profileOf extracts the per-layer survival vector the cache compares.
func profileOf(cfg optimizer.Config) []float64 {
	L := cfg.Model.Base.NumLayers()
	s := make([]float64, L)
	for k := 1; k <= L; k++ {
		s[k-1] = cfg.Profile.At(k)
	}
	return s
}

// withinTol reports whether two survival vectors differ by at most tol at
// every layer.
func withinTol(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// Lookup finds a cached plan for cfg's planning problem.
func (c *PlanCache) Lookup(cfg optimizer.Config) (optimizer.Plan, bool) {
	ck := configKey(cfg)
	prof := profileOf(cfg)
	for i := range c.entries {
		if c.entries[i].confKey == ck && withinTol(c.entries[i].profile, prof, c.tol) {
			c.Hits++
			return c.entries[i].plan, true
		}
	}
	c.Misses++
	return optimizer.Plan{}, false
}

// Store memoizes a freshly searched plan, evicting the oldest entry at
// capacity.
func (c *PlanCache) Store(cfg optimizer.Config, p optimizer.Plan) {
	for len(c.entries) >= c.cap {
		c.entries = c.entries[1:]
	}
	c.entries = append(c.entries, cacheEntry{
		confKey: configKey(cfg), profile: profileOf(cfg), plan: p,
	})
}
