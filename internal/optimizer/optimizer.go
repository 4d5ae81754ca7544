// Package optimizer implements E3's planning optimization (§3.2, Fig 6):
// choose where to cut an EE-DNN into splits, which GPU kind runs each
// split, and how many replicas each split gets, so that merged survivor
// batches keep every split running at the full input batch size.
//
// The search enumerates split boundaries over the model's active ramps
// (candidates ranked by predicted exit mass) and, per partition, assigns
// one GPU kind per split (the paper's constraint: replicas of a split
// share a kind) and allocates replicas greedily to the bottleneck stage —
// which solves the max-min rate allocation the recursive DP describes,
// with pipelining composing stages by max() and non-pipelined execution by
// sum(). SLO (minus slack) bounds the end-to-end path; cost- and
// GPU-minimizing variants serve the §5.3 experiments.
package optimizer

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/profile"
)

// Tunable defaults. Config fields using negative-means-default sentinels
// reference these so callers can both request the default explicitly and
// configure the true zero ("prune nothing", "no slack").
const (
	// DefaultMaxSplits bounds the partition search depth.
	DefaultMaxSplits = 3
	// DefaultMinExitFrac prunes boundary candidates below 2% predicted
	// exit mass.
	DefaultMinExitFrac = 0.02
	// DefaultSlackFrac reserves the paper's 20% SLO headroom: the planner
	// plans for SLO·(1−slack), and every serving stack's batcher sheds
	// against the same slack.
	DefaultSlackFrac = 0.2
	// DefaultMaxBoundaryCands caps the exit ramps considered as split
	// boundaries, ranked by predicted exit mass.
	DefaultMaxBoundaryCands = 10
)

// Config is one planning problem.
type Config struct {
	Model   *ee.EEModel
	Profile profile.Batch
	// Batch is B0, the constant batch size every split instance runs.
	Batch   int
	Cluster *cluster.Cluster
	// SLO is the end-to-end latency bound (seconds); SlackFrac reserves
	// headroom (the paper uses 20%). A zero SlackFrac means no slack;
	// negative selects DefaultSlackFrac.
	SLO       float64
	SlackFrac float64

	// Pipelining composes stage times by max() (§3.2.2); disabling it is
	// the ablation that charges the sum.
	Pipelining bool
	// ModelParallel false forces the §5.8.7 ablation: splits execute
	// serially on each GPU with a cluster-wide barrier and unhidden
	// communication between stages.
	ModelParallel bool
	// DisableInteriorRamps applies the §3.4 exit-wrapper: only split
	// boundaries keep their ramps, saving interior ramp-head kernels.
	DisableInteriorRamps bool

	// MaxSplits bounds the partition search (0 selects DefaultMaxSplits).
	MaxSplits int
	// MinExitFrac prunes boundary candidates with less predicted exit
	// mass. Zero keeps every active ramp; negative selects
	// DefaultMinExitFrac.
	MinExitFrac float64
	// MaxBoundaryCands caps how many exit ramps (ranked by predicted exit
	// mass) the search considers as split boundaries. Zero selects
	// DefaultMaxBoundaryCands; negative removes the cap.
	MaxBoundaryCands int

	// Workers bounds the search's worker pool (the optimizer is
	// deliberately outside the event-loop lint scope). Zero selects
	// min(GOMAXPROCS, 8); negative forces serial. Any value returns a
	// byte-identical plan and trace — parallelism is an implementation
	// detail, not a semantic knob.
	Workers int
	// Costs optionally supplies a precomputed segment cost table (see
	// NewCostTableFor). A nil or incompatible table is replaced
	// internally; sharing a compatible one across objectives and replan
	// windows skips the O(L²·K) rebuild.
	Costs *CostTable

	// Trace optionally records the search's provenance — candidates
	// enumerated, rejections by reason, and the winner with runners-up.
	// Nil (the default) records nothing at zero cost.
	Trace *SearchTrace
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxSplits == 0 {
		out.MaxSplits = DefaultMaxSplits
	}
	// Negative means "default" so that explicit zeros stay configurable:
	// MinExitFrac 0 keeps every active ramp, SlackFrac 0 spends the whole
	// SLO.
	if out.MinExitFrac < 0 {
		out.MinExitFrac = DefaultMinExitFrac
	}
	if out.SlackFrac < 0 {
		out.SlackFrac = DefaultSlackFrac
	}
	if out.MaxBoundaryCands == 0 {
		out.MaxBoundaryCands = DefaultMaxBoundaryCands
	}
	if out.Workers == 0 {
		out.Workers = defaultWorkers()
	}
	if out.Workers < 1 {
		out.Workers = 1
	}
	return out
}

func (c *Config) validate() error {
	if c.Model == nil || c.Cluster == nil {
		return errors.New("optimizer: nil model or cluster")
	}
	if c.Batch < 1 {
		return fmt.Errorf("optimizer: batch %d < 1", c.Batch)
	}
	if c.MaxSplits < 1 {
		return fmt.Errorf("optimizer: MaxSplits %d < 1", c.MaxSplits)
	}
	if c.Profile.L != c.Model.Base.NumLayers() {
		return fmt.Errorf("optimizer: profile over %d layers, model has %d",
			c.Profile.L, c.Model.Base.NumLayers())
	}
	if c.SLO <= 0 {
		return errors.New("optimizer: non-positive SLO")
	}
	return nil
}

// Split is one planned stage.
type Split struct {
	From, To int // 1-based inclusive layer range
	Kind     gpu.Kind
	Replicas int
	// StageTime is the planned busy time of one instance per batch.
	StageTime float64
	// CommTime is the planned transfer time into the *next* split (0 for
	// the last split).
	CommTime float64
	// Survival is the predicted fraction of fresh samples entering this
	// split.
	Survival float64
}

// Plan is the optimizer's output.
type Plan struct {
	Splits []Split
	// Goodput is the planned sustainable fresh-sample rate (samples/s).
	Goodput float64
	// CycleTime is the pipeline bottleneck stage interval.
	CycleTime float64
	// Latency is the planned worst-case end-to-end latency.
	Latency float64
	// Batch is B0.
	Batch int
	// GPUs is the total device count used; CostPerSec its rental price.
	GPUs       int
	CostPerSec float64
	// DisabledInteriorRamps mirrors the config flag so executors build
	// the right model.
	DisabledInteriorRamps bool
	Pipelined             bool
	ModelParallel         bool
}

// String renders a plan compactly.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan{B0=%d goodput=%.0f/s cycle=%.2fms lat=%.1fms gpus=%d $%.5f/s;",
		p.Batch, p.Goodput, p.CycleTime*1e3, p.Latency*1e3, p.GPUs, p.CostPerSec)
	for _, s := range p.Splits {
		fmt.Fprintf(&b, " [%d-%d]x%d@%s", s.From, s.To, s.Replicas, s.Kind)
	}
	b.WriteString("}")
	return b.String()
}

// ExecModel returns the EE model the executors should run for this plan:
// the original, or a clone with interior ramps disabled when the plan was
// built with the exit-wrapper.
func (p Plan) ExecModel(m *ee.EEModel) *ee.EEModel {
	if !p.DisabledInteriorRamps {
		return m
	}
	boundary := make(map[int]bool)
	for _, s := range p.Splits {
		boundary[s.To] = true
	}
	clone := m.Clone()
	for _, r := range clone.Ramps() {
		if !boundary[r] {
			// Ignore error: r comes from Ramps() so it must exist.
			_ = clone.Disable(r)
		} else {
			_ = clone.Enable(r)
		}
	}
	return clone
}

// MaximizeGoodput plans the highest sustainable rate on the full cluster.
func MaximizeGoodput(cfg Config) (Plan, error) {
	return solve(cfg, goodputObjective(), runFast)
}

// MinimizeGPUs plans the smallest device count sustaining target goodput
// (Figure 14). Ties break toward higher goodput.
func MinimizeGPUs(cfg Config, target float64) (Plan, error) {
	return solve(cfg, gpusObjective(target), runFast)
}

// MinimizeCost plans the cheapest GPU mix sustaining target goodput
// (Figure 15).
func MinimizeCost(cfg Config, target float64) (Plan, error) {
	return solve(cfg, costObjective(target), runFast)
}

// boundaryCandidates returns active ramp positions worth cutting at,
// ranked by predicted exit mass and capped to keep the search tractable.
func boundaryCandidates(cfg Config) []int {
	type cand struct {
		pos  int
		mass float64
	}
	var cands []cand
	pruned := 0
	for _, r := range cfg.Model.ActiveRamps() {
		mass := cfg.Profile.At(r) - cfg.Profile.After(r)
		if mass >= cfg.MinExitFrac {
			cands = append(cands, cand{r, mass})
		} else {
			pruned++
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].mass != cands[j].mass {
			return cands[i].mass > cands[j].mass
		}
		return cands[i].pos < cands[j].pos
	})
	maxCands := cfg.MaxBoundaryCands
	if maxCands < 0 {
		maxCands = len(cands)
	}
	capped := 0
	if len(cands) > maxCands {
		capped = len(cands) - maxCands
		cands = cands[:maxCands]
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.pos
	}
	sort.Ints(out)
	cfg.Trace.ramps(out, pruned, capped)
	return out
}

// SplitFits reports whether layers [from, to] of the model fit in one
// device of the given kind at the given batch: weights plus an activation
// working set (double-buffered input/output per sample) within 90% of
// device memory. It is the memory-feasibility constraint the planner
// applies to every (split, kind) assignment — an 8B-parameter model's
// full weight footprint does not fit a 12 GB K80, but its splits can.
func SplitFits(m *ee.EEModel, from, to, batch int, kind gpu.Kind) bool {
	spec := gpu.Get(kind)
	weights := 0.0
	maxAct := 0.0
	for k := from; k <= to; k++ {
		l := m.Base.Layers[k-1]
		weights += l.WeightBytes
		if l.ActBytes > maxAct {
			maxAct = l.ActBytes
		}
	}
	// LM-head ramps keep the vocabulary projection resident.
	if m.LMHeadRamp {
		weights += 2 * float64(m.Base.Hidden) * float64(m.Base.Vocab)
	}
	working := 4 * maxAct * float64(batch) // in/out double buffering
	return weights+working <= spec.MemGB*1e9*0.9
}

// workPerSample is the GPU-seconds one fresh sample costs at split i,
// accounting for the fraction of samples that still reach it.
func workPerSample(s Split, batch int, pipelined bool) float64 {
	t := s.StageTime
	if pipelined {
		// A stage can overlap compute with its inbound transfer, but its
		// effective interval cannot beat the transfer itself.
		if s.CommTime > t {
			t = s.CommTime
		}
	}
	return s.Survival * t / float64(batch)
}

// evaluateSerial models the §5.8.7 ablation: the cluster executes split
// phases globally — every GPU runs split 1 on a fresh batch, a barrier
// and survivor exchange follow, then split 2 runs over the (fewer) merged
// batches while the remaining GPUs idle, and so on. Each phase costs its
// full stage time regardless of how many GPUs still have work, which is
// exactly the utilization loss model parallelism removes.
func evaluateSerial(cfg Config, splits []Split) (Plan, RejectReason) {
	g := cfg.Cluster.Size()
	if g == 0 {
		return Plan{}, RejectReplicas
	}
	const barrier = 1e-3 // global synchronization per stage transition
	round := 0.0
	for i := range splits {
		splits[i].Replicas = g
		round += splits[i].StageTime
		if i < len(splits)-1 {
			round += splits[i].CommTime + barrier
		}
	}
	if round <= 0 {
		return Plan{}, RejectDegenerate
	}
	goodput := float64(g) * float64(cfg.Batch) / round
	lat := round
	if lat > cfg.SLO*(1-cfg.SlackFrac) {
		return Plan{}, RejectSLO
	}
	cost := 0.0
	for _, d := range cfg.Cluster.Devices {
		cost += d.Spec().CostPerSecond()
	}
	return Plan{
		Splits: splits, Goodput: goodput, CycleTime: round, Latency: lat,
		Batch: cfg.Batch, GPUs: g, CostPerSec: cost,
		DisabledInteriorRamps: cfg.DisableInteriorRamps,
		Pipelined:             false, ModelParallel: false,
	}, ""
}

// finishPlan derives rate, latency, and cost, and applies the SLO check,
// reporting why the candidate died ("" means feasible).
func finishPlan(cfg Config, splits []Split) (Plan, RejectReason) {
	goodput := math.Inf(1)
	cycle := 0.0
	latency := 0.0
	gpus := 0
	cost := 0.0
	for _, s := range splits {
		w := workPerSample(s, cfg.Batch, cfg.Pipelining)
		if w > 0 {
			if r := float64(s.Replicas) / w; r < goodput {
				goodput = r
			}
		}
		interval := s.StageTime
		if cfg.Pipelining && s.CommTime > interval {
			interval = s.CommTime
		}
		if interval > cycle {
			cycle = interval
		}
		latency += s.StageTime + s.CommTime
		gpus += s.Replicas
		cost += float64(s.Replicas) * gpu.Get(s.Kind).CostPerSecond()
	}
	if !cfg.Pipelining {
		// Without pipelining a batch occupies the whole chain; each
		// instance's effective interval is the full path.
		goodput = 0.0
		path := latency
		for _, s := range splits {
			r := float64(s.Replicas) * float64(cfg.Batch) / (s.Survival * path)
			if goodput == 0 || r < goodput {
				goodput = r
			}
		}
		cycle = path
	}
	// One bottleneck cycle of queueing slack at merge points; a
	// single-split plan has no merges.
	if len(splits) > 1 {
		latency += cycle
	}
	if latency > cfg.SLO*(1-cfg.SlackFrac) {
		return Plan{}, RejectSLO
	}
	if math.IsInf(goodput, 1) {
		return Plan{}, RejectDegenerate
	}
	return Plan{
		Splits: splits, Goodput: goodput, CycleTime: cycle, Latency: latency,
		Batch: cfg.Batch, GPUs: gpus, CostPerSec: cost,
		DisabledInteriorRamps: cfg.DisableInteriorRamps,
		Pipelined:             cfg.Pipelining, ModelParallel: true,
	}, ""
}
