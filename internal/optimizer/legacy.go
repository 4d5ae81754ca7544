package optimizer

import (
	"math"

	"e3/internal/exec"
	"e3/internal/gpu"
)

// This file keeps the original single-threaded, unmemoized search: per
// candidate it rescans layers via exec.SplitTime and, under the
// exit-wrapper, clones the model. It is retained as the equivalence
// oracle for the fast path (the *Reference entry points must return
// byte-identical winners) and as the pre-memoization baseline the
// planner perf gate and e3-bench -plan-bench measure against. Production
// callers use MaximizeGoodput / MinimizeGPUs / MinimizeCost.

// MaximizeGoodputReference solves max-goodput with the original search.
func MaximizeGoodputReference(cfg Config) (Plan, error) {
	return solve(cfg, goodputObjective(), runReference)
}

// MinimizeGPUsReference solves min-gpus with the original search.
func MinimizeGPUsReference(cfg Config, target float64) (Plan, error) {
	return solve(cfg, gpusObjective(target), runReference)
}

// MinimizeCostReference solves min-cost with the original search.
func MinimizeCostReference(cfg Config, target float64) (Plan, error) {
	return solve(cfg, costObjective(target), runReference)
}

// runReference drives the original exhaustive enumeration for one
// objective.
func runReference(cfg Config, obj objective) (Plan, bool) {
	best := obj.seed()
	found := false
	emit := func(p Plan) {
		if obj.better(p, best) {
			best = p
			found = true
		}
	}
	if obj.kind == objGoodput {
		forEachCandidate(cfg, emit)
	} else {
		forEachCandidateMinimal(cfg, obj.target, emit)
	}
	return best, found
}

// forEachCandidate evaluates every partition × kind assignment at maximum
// replica allocation and reports feasible plans.
func forEachCandidate(cfg Config, emit func(Plan)) {
	enumerate(cfg, func(bounds []int, kinds []gpu.Kind) {
		cfg.Trace.candidate()
		p, reject := evaluateMaxRate(cfg, bounds, kinds)
		if reject != "" {
			cfg.Trace.reject(reject)
			return
		}
		cfg.Trace.feasible(p)
		emit(p)
	})
}

// forEachCandidateMinimal evaluates partitions with the *minimal* replica
// counts achieving the target rate; candidates below the target are
// rejected here so the trace accounts them.
func forEachCandidateMinimal(cfg Config, target float64, emit func(Plan)) {
	enumerate(cfg, func(bounds []int, kinds []gpu.Kind) {
		cfg.Trace.candidate()
		p, reject := evaluateMinAlloc(cfg, bounds, kinds, target)
		if reject == "" && p.Goodput < target {
			reject = RejectRate
		}
		if reject != "" {
			cfg.Trace.reject(reject)
			return
		}
		cfg.Trace.feasible(p)
		emit(p)
	})
}

// enumerate walks all partitions (≤ MaxSplits splits with boundaries drawn
// from the candidates) crossed with per-split GPU-kind assignments present
// in the cluster.
func enumerate(cfg Config, visit func(bounds []int, kinds []gpu.Kind)) {
	cands := boundaryCandidates(cfg)
	var kindsAvail []gpu.Kind
	for _, k := range gpu.Kinds() {
		if len(cfg.Cluster.OfKind(k)) > 0 {
			kindsAvail = append(kindsAvail, k)
		}
	}
	if len(kindsAvail) == 0 {
		return
	}

	var walkKinds func(bounds []int, kinds []gpu.Kind)
	walkKinds = func(bounds []int, kinds []gpu.Kind) {
		n := len(bounds) + 1
		if len(kinds) == n {
			visit(bounds, kinds)
			return
		}
		for _, k := range kindsAvail {
			walkKinds(bounds, append(kinds, k))
		}
	}

	var walkBounds func(start int, bounds []int)
	walkBounds = func(start int, bounds []int) {
		walkKinds(bounds, nil)
		if len(bounds)+1 >= cfg.MaxSplits {
			return
		}
		for i := start; i < len(cands); i++ {
			walkBounds(i+1, append(bounds, cands[i]))
		}
	}
	walkBounds(0, nil)
}

// partitionFits checks every split of a partition against its kind.
func partitionFits(cfg Config, splits []Split) bool {
	for _, s := range splits {
		if !SplitFits(cfg.Model, s.From, s.To, cfg.Batch, s.Kind) {
			return false
		}
	}
	return true
}

// stageGeometry computes per-split times, comm and survival for a
// partition under the config's execution mode. This is the unmemoized
// path: O(L) per candidate, plus a model clone under the exit-wrapper.
func stageGeometry(cfg Config, bounds []int, kinds []gpu.Kind) []Split {
	L := cfg.Model.Base.NumLayers()
	m := cfg.Model
	if cfg.DisableInteriorRamps {
		m = (&Plan{Splits: splitsFromBounds(bounds, L), DisabledInteriorRamps: true}).ExecModel(cfg.Model)
	}
	froms := []int{1}
	for _, b := range bounds {
		froms = append(froms, b+1)
	}
	splits := make([]Split, len(froms))
	for i, from := range froms {
		to := L
		if i < len(bounds) {
			to = bounds[i]
		}
		spec := gpu.Get(kinds[i])
		sIn := cfg.Profile.At(from)
		sOut := 0.0
		if to < L {
			sOut = cfg.Profile.After(to)
		}
		exitFrac := 0.0
		if sIn > 0 {
			exitFrac = (sIn - sOut) / sIn
		}
		st := exec.SplitTime(m, from, to, cfg.Batch, spec)
		// The boundary handoff (sync + reform) overlaps the next batch in
		// pipelined execution, so it counts toward latency via CommTime
		// rather than stage time.
		comm := exec.SplitHandoff(cfg.Batch, exitFrac)
		if to < L {
			// Conservative: plan with the slowest interconnect; the
			// runtime can only do better with local placement.
			link := cfg.Cluster.Topology.WorstCase()
			comm += link.TransferTime(cfg.Model.Base.Layers[to-1].ActBytes * float64(cfg.Batch))
		}
		splits[i] = Split{From: from, To: to, Kind: kinds[i], StageTime: st, CommTime: comm, Survival: sIn}
	}
	return splits
}

func splitsFromBounds(bounds []int, l int) []Split {
	from := 1
	var out []Split
	for _, b := range bounds {
		out = append(out, Split{From: from, To: b})
		from = b + 1
	}
	return append(out, Split{From: from, To: l})
}

// evaluateMaxRate allocates every available GPU greedily to the bottleneck
// split and reports the resulting plan, or the reason the candidate was
// rejected ("" means feasible).
func evaluateMaxRate(cfg Config, bounds []int, kinds []gpu.Kind) (Plan, RejectReason) {
	splits := stageGeometry(cfg, bounds, kinds)
	if !partitionFits(cfg, splits) {
		return Plan{}, RejectMemory
	}
	if !cfg.ModelParallel {
		return evaluateSerial(cfg, splits)
	}
	avail := cfg.Cluster.Counts()

	// Start with one replica each; infeasible if kinds are short.
	for i := range splits {
		if avail[splits[i].Kind] == 0 {
			return Plan{}, RejectReplicas
		}
		avail[splits[i].Kind]--
		splits[i].Replicas = 1
	}
	rate := func(i int) float64 {
		w := workPerSample(splits[i], cfg.Batch, cfg.Pipelining)
		if w <= 0 {
			return math.Inf(1)
		}
		return float64(splits[i].Replicas) / w
	}
	for {
		// Find the bottleneck stage that can still grow.
		bi, brate := -1, math.Inf(1)
		for i := range splits {
			r := rate(i)
			if r < brate {
				brate, bi = r, i
			}
		}
		if bi < 0 || avail[splits[bi].Kind] == 0 {
			break
		}
		avail[splits[bi].Kind]--
		splits[bi].Replicas++
	}
	return finishPlan(cfg, splits)
}

// evaluateMinAlloc gives each split exactly the replicas needed for the
// target rate, reporting the rejection reason ("" means feasible; the
// caller still checks the achieved rate against the target).
func evaluateMinAlloc(cfg Config, bounds []int, kinds []gpu.Kind, target float64) (Plan, RejectReason) {
	splits := stageGeometry(cfg, bounds, kinds)
	if !partitionFits(cfg, splits) {
		return Plan{}, RejectMemory
	}
	if !cfg.ModelParallel {
		return evaluateSerial(cfg, splits)
	}
	avail := cfg.Cluster.Counts()
	for i := range splits {
		w := workPerSample(splits[i], cfg.Batch, cfg.Pipelining)
		need := int(math.Ceil(target * w))
		if need < 1 {
			need = 1
		}
		if avail[splits[i].Kind] < need {
			return Plan{}, RejectReplicas
		}
		avail[splits[i].Kind] -= need
		splits[i].Replicas = need
	}
	return finishPlan(cfg, splits)
}
