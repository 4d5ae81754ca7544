package optimizer

import (
	"fmt"
	"math"
	"runtime"

	"e3/internal/exec"
	"e3/internal/gpu"
	"e3/internal/tasks"
)

// This file is the planner's fast path: candidate stage times, fits, and
// transfers come from the memoized CostTable; whole kind-assignment
// subtrees die against admissible bounds (branch-and-bound); partitions
// are evaluated on the shared worker pool (package tasks). The search is
// engineered to return a byte-identical winner and SearchTrace to the
// serial reference: partitions are processed in the reference's
// enumeration order, each partition's tally is merged in that order, and
// the incumbent is frozen per fixed-size chunk — so the result does not
// depend on Workers.

// objKind selects the planning objective.
type objKind int

const (
	objGoodput objKind = iota
	objGPUs
	objCost
)

// objective bundles one objective's comparator, score, and failure text.
type objective struct {
	kind   objKind
	name   string
	target float64
}

func goodputObjective() objective { return objective{kind: objGoodput, name: "max-goodput"} }
func gpusObjective(target float64) objective {
	return objective{kind: objGPUs, name: "min-gpus", target: target}
}
func costObjective(target float64) objective {
	return objective{kind: objCost, name: "min-cost", target: target}
}

// minimal reports whether the objective allocates minimally for a target
// rate (vs. maximally for goodput).
func (o objective) minimal() bool { return o.kind != objGoodput }

// better is the objective's strict comparator; ties on the primary score
// break toward higher goodput for the minimizing objectives and lose for
// max-goodput (first seen wins).
func (o objective) better(a, b Plan) bool {
	switch o.kind {
	case objGPUs:
		return a.GPUs < b.GPUs || (a.GPUs == b.GPUs && a.Goodput > b.Goodput)
	case objCost:
		return a.CostPerSec < b.CostPerSec || (a.CostPerSec == b.CostPerSec && a.Goodput > b.Goodput)
	}
	return a.Goodput > b.Goodput
}

// score is the objective's primary score for trace ranking.
func (o objective) score(p Plan) float64 {
	switch o.kind {
	case objGPUs:
		return float64(p.GPUs)
	case objCost:
		return p.CostPerSec
	}
	return p.Goodput
}

// seed is the identity plan every real candidate beats.
func (o objective) seed() Plan {
	switch o.kind {
	case objGPUs:
		return Plan{GPUs: math.MaxInt}
	case objCost:
		return Plan{CostPerSec: math.Inf(1)}
	}
	return Plan{}
}

// failure is the objective's no-feasible-plan error.
func (o objective) failure(cfg Config) error {
	switch o.kind {
	case objGPUs:
		return fmt.Errorf("optimizer: cluster cannot sustain %.0f samples/s at batch %d", o.target, cfg.Batch)
	case objCost:
		return fmt.Errorf("optimizer: cluster cannot sustain %.0f samples/s at batch %d within cost search", o.target, cfg.Batch)
	}
	return fmt.Errorf("optimizer: no feasible plan for batch %d under SLO %.0fms",
		cfg.Batch, cfg.SLO*1e3)
}

// solve runs one objective end to end: defaults, validation, trace
// bracketing, and the chosen search engine.
func solve(cfg Config, obj objective, run func(Config, objective) (Plan, bool)) (Plan, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Plan{}, err
	}
	cfg.Trace.begin(cfg, obj.name, obj.target, obj.better, obj.score)
	best, found := run(cfg, obj)
	var err error
	if !found {
		err = obj.failure(cfg)
	}
	cfg.Trace.finish(best, found, err)
	if err != nil {
		return Plan{}, err
	}
	return best, nil
}

// defaultWorkers sizes the worker pool: enough to cover the chunk, never
// more than the machine offers, capped so planning stays a good citizen
// inside a serving process.
func defaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// chunkSize is the incumbent-freeze granularity: partitions within one
// chunk are pruned against the same frozen incumbent and merged in
// enumeration order at the chunk barrier. It is a fixed constant —
// independent of Workers — so any pool size yields the same pruning
// decisions, trace, and winner.
const chunkSize = 32

// boundSlack is the relative safety margin on floating-point bound
// comparisons: a subtree is pruned only when its bound misses the
// incumbent (or target) by more than this factor, so rounding in the
// bound arithmetic can never discard the true winner.
const boundSlack = 1e-9

// incumbent is the chunk-frozen best plan tasks prune against.
type incumbent struct {
	plan  Plan
	found bool
}

// runFast drives the memoized, pruned, parallel search for one objective.
func runFast(cfg Config, obj objective) (Plan, bool) {
	tbl := cfg.Costs
	if !tbl.CompatibleWith(cfg) {
		tbl = NewCostTableFor(cfg)
	}
	cands := boundaryCandidates(cfg)
	var kinds []gpu.Kind
	var kindIdx []int
	var counts []int
	for _, k := range gpu.Kinds() {
		if n := len(cfg.Cluster.OfKind(k)); n > 0 {
			kinds = append(kinds, k)
			kindIdx = append(kindIdx, tbl.kindIndex(k))
			counts = append(counts, n)
		}
	}
	if len(kinds) == 0 {
		return Plan{}, false
	}

	// Partitions in the reference enumeration's pre-order.
	var parts [][]int
	var walkBounds func(start int, bounds []int)
	walkBounds = func(start int, bounds []int) {
		parts = append(parts, append([]int(nil), bounds...))
		if len(bounds)+1 >= cfg.MaxSplits {
			return
		}
		for i := start; i < len(cands); i++ {
			walkBounds(i+1, append(bounds, cands[i]))
		}
	}
	walkBounds(0, nil)

	sc := &searchCtx{
		cfg:     &cfg,
		obj:     obj,
		tbl:     tbl,
		kinds:   kinds,
		kindIdx: kindIdx,
		counts:  counts,
		keepTop: cfg.Trace != nil,
	}

	best := obj.seed()
	found := false
	for lo := 0; lo < len(parts); lo += chunkSize {
		hi := lo + chunkSize
		if hi > len(parts) {
			hi = len(parts)
		}
		chunk := parts[lo:hi]
		tallies := make([]*partTally, len(chunk))
		inc := incumbent{plan: best, found: found}
		tasks.Run(len(chunk), cfg.Workers, func(i int) error {
			tallies[i] = sc.evalPartition(chunk[i], inc)
			return nil
		})
		// Merge in enumeration order: the total order over candidates is
		// exactly the serial one, so "strictly better replaces, first seen
		// wins ties" resolves identically for any worker count.
		for _, tal := range tallies {
			cfg.Trace.absorb(tal)
			if tal.found && obj.better(tal.best, best) {
				best = tal.best
				found = true
			}
		}
	}
	return best, found
}

// searchCtx is the per-search immutable state shared by partition tasks.
type searchCtx struct {
	cfg     *Config
	obj     objective
	tbl     *CostTable
	kinds   []gpu.Kind // kinds present in the cluster, catalogue order
	kindIdx []int      // table row per kinds entry
	counts  []int      // device inventory per kinds entry
	keepTop bool
}

// partTally is one partition task's private accounting, merged into the
// SearchTrace and incumbent at the chunk barrier.
type partTally struct {
	enumerated int
	rejected   [numReasons]int
	feasible   int
	// Dominance-pruned work (never enumerated).
	prunedSubtrees int
	prunedCands    int
	top            []ScoredPlan
	best           Plan
	found          bool
}

// partEval evaluates every kind assignment of one partition.
type partEval struct {
	sc *searchCtx
	n  int

	from, to   []int
	surv, comm []float64
	st         [][]float64 // [stage][kind] stage time
	fits       [][]bool
	w          [][]float64 // [stage][kind] work per fresh sample

	// Admissible bounds (ModelParallel only).
	prune     bool
	ub        [][]float64 // [stage][kind] rate with the kind's whole inventory
	sufUB     []float64   // [i] best achievable rate over stages i..n-1
	need      [][]int     // [stage][kind] minimal replicas for the target
	stageCost [][]float64 // [stage][kind] cost of that minimal allocation
	sufNeed   []int       // [i] Σ min-over-kinds need for stages i..n-1
	sufCost   []float64

	kidx  []int // current kind assignment (index into sc.kinds)
	avail []int // leaf scratch

	cur      Plan // best seen: chunk incumbent, then local improvements
	curFound bool

	tally partTally
}

// evalPartition precomputes the per-stage geometry for one partition and
// walks its kind assignments with memory accounting and dominance pruning.
func (sc *searchCtx) evalPartition(bounds []int, inc incumbent) *partTally {
	cfg := sc.cfg
	L := cfg.Model.Base.NumLayers()
	n := len(bounds) + 1
	pe := &partEval{
		sc: sc, n: n,
		from: make([]int, n), to: make([]int, n),
		surv: make([]float64, n), comm: make([]float64, n),
		st:   make([][]float64, n),
		fits: make([][]bool, n),
		w:    make([][]float64, n),
		kidx: make([]int, n), avail: make([]int, len(sc.counts)),
		prune: cfg.ModelParallel,
	}
	pe.cur = inc.plan
	pe.curFound = inc.found
	if !inc.found {
		pe.cur = sc.obj.seed()
	}

	from := 1
	for i := 0; i < n; i++ {
		to := L
		if i < len(bounds) {
			to = bounds[i]
		}
		pe.from[i], pe.to[i] = from, to
		sIn := cfg.Profile.At(from)
		sOut := 0.0
		if to < L {
			sOut = cfg.Profile.After(to)
		}
		exitFrac := 0.0
		if sIn > 0 {
			exitFrac = (sIn - sOut) / sIn
		}
		pe.surv[i] = sIn
		pe.comm[i] = exec.SplitHandoff(cfg.Batch, exitFrac) + sc.tbl.boundaryTransfer(to)

		K := len(sc.kinds)
		pe.st[i] = make([]float64, K)
		pe.fits[i] = make([]bool, K)
		pe.w[i] = make([]float64, K)
		for k := 0; k < K; k++ {
			row := sc.kindIdx[k]
			pe.st[i][k] = sc.tbl.stageTime(row, from, to)
			pe.fits[i][k] = sc.tbl.splitFits(row, from, to)
			pe.w[i][k] = workPerSample(Split{
				StageTime: pe.st[i][k], CommTime: pe.comm[i], Survival: sIn,
			}, cfg.Batch, cfg.Pipelining)
		}
		from = to + 1
	}

	if pe.prune {
		pe.buildBounds()
	}
	pe.dfs(0, math.Inf(1), 0, 0)
	pe.tally.best = pe.cur
	pe.tally.found = pe.curFound
	return &pe.tally
}

// buildBounds derives the admissible per-stage bounds: ub is the rate a
// stage could reach with its kind's entire inventory (actual allocations
// use a subset, so actual rate ≤ ub with the same floating-point
// divisions); need/stageCost are the exact minimal allocation the
// min-objectives' leaf will compute. Suffix aggregates give the best any
// completion of a partial assignment could do.
func (pe *partEval) buildBounds() {
	sc := pe.sc
	K := len(sc.kinds)
	minimal := sc.obj.minimal()
	pe.ub = make([][]float64, pe.n)
	pe.sufUB = make([]float64, pe.n+1)
	pe.sufUB[pe.n] = math.Inf(1)
	if minimal {
		pe.need = make([][]int, pe.n)
		pe.stageCost = make([][]float64, pe.n)
		pe.sufNeed = make([]int, pe.n+1)
		pe.sufCost = make([]float64, pe.n+1)
	}
	for i := pe.n - 1; i >= 0; i-- {
		pe.ub[i] = make([]float64, K)
		stageUB := 0.0
		minNeed, minCost := 0, 0.0
		if minimal {
			pe.need[i] = make([]int, K)
			pe.stageCost[i] = make([]float64, K)
			minNeed, minCost = math.MaxInt, math.Inf(1)
		}
		anyFit := false
		for k := 0; k < K; k++ {
			wv := pe.w[i][k]
			u := math.Inf(1)
			if wv > 0 {
				u = float64(sc.counts[k]) / wv
			}
			pe.ub[i][k] = u
			if minimal {
				need := int(math.Ceil(sc.obj.target * wv))
				if need < 1 {
					need = 1
				}
				pe.need[i][k] = need
				cost := float64(need) * gpu.Get(sc.kinds[k]).CostPerSecond()
				pe.stageCost[i][k] = cost
				if pe.fits[i][k] {
					if need < minNeed {
						minNeed = need
					}
					if cost < minCost {
						minCost = cost
					}
				}
			}
			if pe.fits[i][k] {
				anyFit = true
				if u > stageUB {
					stageUB = u
				}
			}
		}
		if !anyFit {
			// No kind fits this stage: every assignment dies on memory,
			// which the DFS accounts exactly; keep the bounds admissible.
			stageUB = 0
			minNeed, minCost = 0, 0
		}
		pe.sufUB[i] = pe.sufUB[i+1]
		if stageUB < pe.sufUB[i] {
			pe.sufUB[i] = stageUB
		}
		if minimal {
			pe.sufNeed[i] = pe.sufNeed[i+1] + minNeed
			pe.sufCost[i] = pe.sufCost[i+1] + minCost
		}
	}
}

// dfs assigns a kind to stage i. ubMin carries the prefix's rate bound,
// gpre/cpre the prefix's exact minimal GPUs and cost (min objectives).
func (pe *partEval) dfs(i int, ubMin float64, gpre int, cpre float64) {
	if i == pe.n {
		pe.leaf()
		return
	}
	subtree := intPow(len(pe.sc.kinds), pe.n-1-i)
	for k := range pe.sc.kinds {
		if !pe.fits[i][k] {
			// Memory misfit kills the whole suffix regardless of later
			// kinds; account every would-be candidate exactly as the
			// reference search does.
			pe.tally.enumerated += subtree
			pe.tally.rejected[idxMemory] += subtree
			continue
		}
		nextUB := ubMin
		ng, nc := gpre, cpre
		if pe.prune {
			if u := pe.ub[i][k]; u < nextUB {
				nextUB = u
			}
			potential := nextUB
			if s := pe.sufUB[i+1]; s < potential {
				potential = s
			}
			prune := false
			if pe.sc.obj.kind == objGoodput {
				// Ties lose to the incumbent, so ≤ prunes.
				prune = pe.curFound && potential*(1+boundSlack) <= pe.cur.Goodput
			} else {
				// No completion can reach the target rate.
				prune = potential*(1+boundSlack) < pe.sc.obj.target
				if !prune {
					switch pe.sc.obj.kind {
					case objGPUs:
						ng = gpre + pe.need[i][k]
						// Equal GPU counts can still win on goodput, so
						// only a strictly worse bound prunes.
						prune = pe.curFound && ng+pe.sufNeed[i+1] > pe.cur.GPUs
					case objCost:
						nc = cpre + pe.stageCost[i][k]
						prune = pe.curFound && nc+pe.sufCost[i+1] > pe.cur.CostPerSec*(1+boundSlack)
					}
				}
			}
			if prune {
				pe.tally.prunedSubtrees++
				pe.tally.prunedCands += subtree
				continue
			}
		}
		pe.kidx[i] = k
		pe.dfs(i+1, nextUB, ng, nc)
	}
}

// leaf evaluates one complete kind assignment. Memory feasibility is
// already established stage by stage.
func (pe *partEval) leaf() {
	cfg := pe.sc.cfg
	pe.tally.enumerated++
	var p Plan
	var rej RejectReason
	switch {
	case !cfg.ModelParallel:
		p, rej = evaluateSerial(*cfg, pe.buildSplits())
	case pe.sc.obj.minimal():
		p, rej = pe.evalMinAlloc()
	default:
		p, rej = pe.evalMaxRate()
	}
	if pe.sc.obj.minimal() && rej == "" && p.Goodput < pe.sc.obj.target {
		rej = RejectRate
	}
	if rej != "" {
		pe.tally.rejected[reasonIndex(rej)]++
		return
	}
	pe.tally.feasible++
	if pe.sc.keepTop {
		pe.tally.top = insertScored(pe.tally.top,
			ScoredPlan{Plan: p, Score: pe.sc.obj.score(p)}, pe.sc.obj.better)
	}
	if pe.sc.obj.better(p, pe.cur) {
		pe.cur = p
		pe.curFound = true
	}
}

// buildSplits materializes the current assignment's splits from the
// precomputed stage geometry.
func (pe *partEval) buildSplits() []Split {
	splits := make([]Split, pe.n)
	for i := 0; i < pe.n; i++ {
		k := pe.kidx[i]
		splits[i] = Split{
			From: pe.from[i], To: pe.to[i], Kind: pe.sc.kinds[k],
			StageTime: pe.st[i][k], CommTime: pe.comm[i], Survival: pe.surv[i],
		}
	}
	return splits
}

// evalMaxRate mirrors the reference evaluateMaxRate on the memoized
// geometry: one replica each, then greedy growth of the bottleneck stage.
func (pe *partEval) evalMaxRate() (Plan, RejectReason) {
	cfg := pe.sc.cfg
	splits := pe.buildSplits()
	copy(pe.avail, pe.sc.counts)
	for i := range splits {
		if pe.avail[pe.kidx[i]] == 0 {
			return Plan{}, RejectReplicas
		}
		pe.avail[pe.kidx[i]]--
		splits[i].Replicas = 1
	}
	for {
		bi, brate := -1, math.Inf(1)
		for i := range splits {
			wv := pe.w[i][pe.kidx[i]]
			r := math.Inf(1)
			if wv > 0 {
				r = float64(splits[i].Replicas) / wv
			}
			if r < brate {
				brate, bi = r, i
			}
		}
		if bi < 0 || pe.avail[pe.kidx[bi]] == 0 {
			break
		}
		pe.avail[pe.kidx[bi]]--
		splits[bi].Replicas++
	}
	return finishPlan(*cfg, splits)
}

// evalMinAlloc mirrors the reference evaluateMinAlloc: exactly the
// replicas each stage needs for the target rate.
func (pe *partEval) evalMinAlloc() (Plan, RejectReason) {
	cfg := pe.sc.cfg
	splits := pe.buildSplits()
	copy(pe.avail, pe.sc.counts)
	for i := range splits {
		need := 1
		if pe.need != nil {
			need = pe.need[i][pe.kidx[i]]
		} else {
			w := pe.w[i][pe.kidx[i]]
			need = int(math.Ceil(pe.sc.obj.target * w))
			if need < 1 {
				need = 1
			}
		}
		if pe.avail[pe.kidx[i]] < need {
			return Plan{}, RejectReplicas
		}
		pe.avail[pe.kidx[i]] -= need
		splits[i].Replicas = need
	}
	return finishPlan(*cfg, splits)
}

// intPow is the number of kind assignments in a depth-(e) suffix.
func intPow(b, e int) int {
	out := 1
	for ; e > 0; e-- {
		out *= b
	}
	return out
}
