package scheduler

import (
	"math"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/exec"
	"e3/internal/optimizer"
	"e3/internal/sim"
	"e3/internal/workload"
)

// Serial executes an E3 plan with model parallelism turned OFF (§5.8.7):
// the cluster runs split phases globally. Every device takes a fresh batch
// through split 1; a barrier and survivor exchange follow; the (fewer)
// merged batches of split 2 run while leftover devices idle; and so on.
// Each phase lasts as long as its slowest wave, which is the utilization
// loss the model-parallel pipeline removes.
type Serial struct {
	eng     *sim.Engine
	clus    *cluster.Cluster
	model   *ee.EEModel
	plan    optimizer.Plan
	coll    *Collector
	pending [][]workload.Sample
	running bool
	// draining forces partial rounds after FlushAll so end-of-run leftovers
	// smaller than a full round still execute instead of vanishing.
	draining    bool
	completions completionJobs
}

const serialBarrier = 1e-3

// NewSerial builds the ablation runner.
func NewSerial(eng *sim.Engine, clus *cluster.Cluster, m *ee.EEModel, plan optimizer.Plan, coll *Collector) *Serial {
	s := &Serial{eng: eng, clus: clus, model: plan.ExecModel(m), plan: plan, coll: coll,
		completions: completionJobs{coll: coll}}
	for i := range clus.Devices {
		coll.Register(&clus.Devices[i], i)
	}
	return s
}

// Collector implements Runner.
func (s *Serial) Collector() *Collector { return s.coll }

// Ingest implements Runner: batches accumulate until a full round (one
// batch per device) is available, then the round executes phase by phase.
func (s *Serial) Ingest(batch []workload.Sample) {
	if len(batch) == 0 {
		return
	}
	s.pending = append(s.pending, batch)
	s.tryRound(false)
}

// Flush runs a final partial round.
func (s *Serial) Flush() { s.tryRound(true) }

// FlushAll implements the serving layer's end-of-run Flusher hook: it
// keeps forcing partial rounds until the pending queue is empty, so no
// ingested sample is silently abandoned.
func (s *Serial) FlushAll() {
	s.draining = true
	s.tryRound(true)
}

func (s *Serial) tryRound(force bool) {
	g := s.clus.Size()
	if s.running || len(s.pending) == 0 {
		return
	}
	if !force && len(s.pending) < g {
		return
	}
	n := len(s.pending)
	if n > g {
		n = g
	}
	round := s.pending[:n]
	s.pending = s.pending[n:]
	s.running = true
	s.runRound(round)
}

// runRound executes one global phase-synchronized round.
func (s *Serial) runRound(round [][]workload.Sample) {
	g := s.clus.Size()
	b0 := s.plan.Batch
	// Pool all samples; phase i re-forms batches of B0 from survivors.
	var pool []workload.Sample
	for _, b := range round {
		pool = append(pool, b...)
	}
	now := s.eng.Now()
	elapsed := 0.0
	for si, sp := range s.plan.Splits {
		if len(pool) == 0 {
			break
		}
		nb := (len(pool) + b0 - 1) / b0
		waves := (nb + g - 1) / g
		spec := s.clus.Devices[0].Spec()
		var phaseDur float64
		var survivors []workload.Sample
		for i := 0; i < nb; i++ {
			lo, hi := i*b0, (i+1)*b0
			if hi > len(pool) {
				hi = len(pool)
			}
			s.coll.Dispatched(pool[lo:hi], now+elapsed, si, i%g)
			res := exec.RunSplit(s.model, sp.From, sp.To, pool[lo:hi], spec, s.clus.Devices[i%g].Slowdown)
			// No pipelining: the boundary handoff sits on the critical path.
			if d := res.Duration + res.HandoffDelay; d > phaseDur {
				phaseDur = d
			}
			s.coll.Executed(i%g, s.model.Name, si, sp.From, sp.To, pool[lo:hi], now+elapsed, &res)
			// Every completion of this batch lands at the end of the phase;
			// one event finishes them all in slice order, matching the
			// per-sample events this replaces.
			if comps := res.Completions; len(comps) > 0 {
				s.completions.schedule(s.eng, elapsed+res.Duration+res.HandoffDelay, comps)
			}
			survivors = append(survivors, res.Survivors...)
		}
		phaseDur *= float64(waves)
		elapsed += phaseDur
		if si < len(s.plan.Splits)-1 {
			elapsed += serialBarrier + sp.CommTime
		}
		pool = survivors
	}
	if math.IsNaN(elapsed) || elapsed < 0 {
		elapsed = 0
	}
	s.eng.After(elapsed, func() {
		s.running = false
		s.tryRound(s.draining)
	})
}
