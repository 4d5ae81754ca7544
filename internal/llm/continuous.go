package llm

// Continuous (iterative) batching, Orca-style: instead of padding a static
// batch until its longest request finishes, each iteration refills freed
// slots from the queue. The paper defers combining this with E3 to future
// work but observes the key fact we reproduce here: continuous batching
// fixes *cross-iteration* waste, while the EE batch-shrinking problem
// lives *within* an iteration — so early exits still need E3's splits.

import (
	"e3/internal/ee"
	"e3/internal/exec"
	"e3/internal/gpu"
	"e3/internal/workload"
)

// continuousState tracks one in-flight request's progress.
type continuousState struct {
	req  Request
	next int // next token index to generate
}

// ContinuousBatchStats summarizes a continuous-batching run.
type ContinuousBatchStats struct {
	// Completed requests and the virtual time consumed.
	Completed int
	Elapsed   float64
	// Iterations executed and mean slot occupancy (1 = no bubbles).
	Iterations int
	Occupancy  float64
}

// RunContinuous serves requests with iterative scheduling on one device:
// every iteration forms a token batch from up to `slots` active requests,
// refilling freed slots immediately. Exit behaviour follows the model's
// ramps (within-iteration shrinkage for EE models). It stops once all
// requests complete.
func RunContinuous(m *ee.EEModel, reqs []Request, slots int, spec gpu.Spec) ContinuousBatchStats {
	if slots < 1 {
		slots = 1
	}
	var stats ContinuousBatchStats
	queue := append([]Request(nil), reqs...)
	active := make([]*continuousState, 0, slots)
	filled := 0

	for len(queue) > 0 || len(active) > 0 {
		// Refill freed slots.
		for len(active) < slots && len(queue) > 0 {
			active = append(active, &continuousState{req: queue[0]})
			queue = queue[1:]
		}
		// One iteration: one token per active request.
		batch := make([]workload.Sample, len(active))
		for i, st := range active {
			batch[i] = workload.Sample{ID: int64(i), Difficulty: st.req.Difficulties[st.next]}
		}
		res := exec.RunEager(m, batch, spec, 1)
		stats.Elapsed += res.Duration
		stats.Iterations++
		filled += len(active)

		// Advance and retire.
		kept := active[:0]
		for _, st := range active {
			st.next++
			if st.next >= st.req.Tokens() {
				stats.Completed++
				continue
			}
			kept = append(kept, st)
		}
		active = kept
	}
	if stats.Iterations > 0 {
		stats.Occupancy = float64(filled) / float64(stats.Iterations*slots)
	}
	return stats
}

// GoodputContinuous measures requests/second under continuous batching on
// nGPU identical devices, each running an independent iterative scheduler
// over its share of a request stream.
func GoodputContinuous(m *ee.EEModel, lengths LengthDist, dist workload.Dist, slots, nGPU, nReqs int, spec gpu.Spec, seed int64) float64 {
	reqs := GenRequests(nReqs, lengths, dist, seed)
	stats := RunContinuous(m, reqs, slots, spec)
	if stats.Elapsed == 0 {
		return 0
	}
	return float64(stats.Completed) / stats.Elapsed * float64(nGPU)
}
