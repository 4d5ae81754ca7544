// Package serving is E3's simulated inference front door (§4): dynamic
// batching over open-loop arrival traces, closed-loop drivers, the
// sustained-goodput search the evaluation uses, and the control-plane
// state a server exposes. The HTTP/JSON API over it lives in
// internal/httpapi, so nothing here links the network stack.
package serving

import (
	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/optimizer"
	"e3/internal/scheduler"
	"e3/internal/sim"
	"e3/internal/workload"
)

// Batcher implements the paper's dynamic batching: queue incoming requests
// and dispatch when either the target batch size is reached or the queued
// inputs would violate their SLA if not immediately scheduled. Requests
// that cannot possibly be served in time are dropped (§3.1, as in
// Clockwork).
type Batcher struct {
	eng    *sim.Engine
	runner scheduler.Runner
	// coll and backlog are the runner's collector and, when it reports
	// one, its backlog estimate, looked up once at construction.
	coll    *scheduler.Collector
	backlog backlogged
	// batch is the target batch size.
	batch int
	// estService is the expected service time once dispatched; arrivals
	// whose remaining slack is below it are dropped, and queued heads
	// force dispatch when their slack runs down to it.
	estService float64
	// slackFrac reserves SLO headroom (paper: 20%).
	slackFrac float64

	queue []workload.Sample
	// flushTimer is the SLA-pressure check for the queue head; its pending
	// time is the only record of when the next check runs.
	flushTimer *sim.Timer
	// pool optionally recycles dispatched batch slices through the runner
	// (nil = allocate per dispatch, the pre-fast-path behavior; pooling
	// never changes dispatched values, only allocation reuse).
	pool *workload.BatchPool
}

// NewBatcher wires a dynamic batcher in front of a runner.
func NewBatcher(eng *sim.Engine, r scheduler.Runner, batch int, estService, slackFrac float64) *Batcher {
	if batch < 1 {
		batch = 1
	}
	b := &Batcher{eng: eng, runner: r, coll: r.Collector(), batch: batch, estService: estService, slackFrac: slackFrac}
	b.backlog, _ = r.(backlogged)
	b.flushTimer = eng.NewTimer(b.flush)
	return b
}

// SetPool attaches a batch pool; dispatched slices are drawn from it and
// the runner (which owns them from dispatch on) returns them when done.
// A nil pool restores per-dispatch allocation.
func (b *Batcher) SetPool(p *workload.BatchPool) { b.pool = p }

// Deploy is the one place a plan becomes a serving stack: an E3 pipeline
// on clus reporting to coll, behind a batcher sized and timed by plan,
// both recycling batches through pool (nil = no recycling).
func Deploy(eng *sim.Engine, clus *cluster.Cluster, m *ee.EEModel, plan optimizer.Plan, coll *scheduler.Collector, pool *workload.BatchPool) (*scheduler.Pipeline, *Batcher, error) {
	pipe, err := scheduler.NewPipeline(eng, clus, m, plan, coll)
	if err != nil {
		return nil, nil, err
	}
	pipe.SetPool(pool)
	b := NewBatcher(eng, pipe, plan.Batch, plan.Latency, optimizer.DefaultSlackFrac)
	b.SetPool(pool)
	return pipe, b, nil
}

// Arrive accepts one request at the current virtual time.
func (b *Batcher) Arrive(s workload.Sample) {
	now := b.eng.Now()
	if b.deadlineHopeless(s, now) {
		b.coll.Drop(s, now, audit.ReasonAdmission)
		return
	}
	b.queue = append(b.queue, s)
	b.coll.Queued(s, now)
	if len(b.queue) >= b.batch {
		b.dispatch(b.batch)
		return
	}
	b.armFlush()
}

// backlogged runners report their expected queueing delay so admission
// control can shed load the cluster cannot absorb in time (Clockwork-style
// dropping, §3.1).
type backlogged interface {
	BacklogDelay() float64
}

// effectiveService is the expected time from dispatch to completion
// including the runner's current backlog. Admission control and the flush
// timer must use the same estimate: if the flush fire time ignored
// backlog it would fire after queued samples had already become hopeless,
// shedding load that was viable at arrival.
func (b *Batcher) effectiveService() float64 {
	est := b.estService
	if b.backlog != nil {
		est += b.backlog.BacklogDelay()
	}
	return est
}

// deadlineHopeless reports whether a sample can no longer meet its SLA
// even if dispatched immediately, accounting for the runner's backlog.
func (b *Batcher) deadlineHopeless(s workload.Sample, now float64) bool {
	slack := (s.Deadline - now) * (1 - b.slackFrac)
	return slack < b.effectiveService()
}

// dispatch sends the first n queued samples to the runner and re-arms the
// flush timer for the new queue head: the old timer tracked the
// dispatched head's fire time, and with heterogeneous SLOs the new head's
// forced-dispatch point can be earlier.
func (b *Batcher) dispatch(n int) {
	if n > len(b.queue) {
		n = len(b.queue)
	}
	if n == 0 {
		return
	}
	batch := b.pool.Get(n)
	copy(batch, b.queue[:n])
	// Compact the queue in place instead of advancing the slice: an
	// advancing slice strands the dispatched prefix in the backing array
	// (alive but unreachable) and sheds capacity until the next realloc —
	// on hour-long traces that is steady allocation churn plus retained
	// memory for already-dispatched samples.
	m := copy(b.queue, b.queue[n:])
	clearSamples(b.queue[m:])
	b.queue = b.queue[:m]
	// The head entered the queue at its arrival (admission happens in
	// Arrive), so head wait = now − arrival.
	b.coll.QueueWait(batch, b.eng.Now())
	b.runner.Ingest(batch)
	b.disarmFlush()
	b.armFlush()
}

// clearSamples zeroes a slice's elements so samples that left the queue
// do not stay alive through the backing array.
func clearSamples(s []workload.Sample) {
	for i := range s {
		s[i] = workload.Sample{}
	}
}

// disarmFlush cancels any pending flush check.
func (b *Batcher) disarmFlush() { b.flushTimer.Stop() }

// headFireAt is the time the queue head's slack runs down to the
// effective service estimate — the last moment a partial dispatch keeps
// its SLA reachable. Fire 2% of the estimate early: at the exact boundary
// floating-point rounding can land the recomputed slack an ulp below the
// estimate and the flush would shed the head instead of dispatching it.
// The early slack (1.02x) sits safely inside the pressure check's 1.05x
// tolerance, so the flush still dispatches rather than re-arming forever.
func (b *Batcher) headFireAt() float64 {
	return b.queue[0].Deadline - 1.02*b.effectiveService()/(1-b.slackFrac)
}

// armFlush schedules the SLA-pressure check for the queue head. A pending
// check that already fires at or before the head's deadline point is kept
// (an early fire merely re-checks and re-arms); a later one is moved.
func (b *Batcher) armFlush() {
	if len(b.queue) == 0 {
		return
	}
	fireAt := b.headFireAt()
	if at, ok := b.flushTimer.When(); ok && at <= fireAt {
		return
	}
	// A head already past its fire point is checked at once. The time is
	// now plus the delay, as Engine.After computes it, not fireAt itself:
	// that rounding decides exact ties with other events.
	now := b.eng.Now()
	delay := fireAt - now
	if delay < 0 {
		delay = 0
	}
	b.flushTimer.Reset(now + delay)
}

// flush dispatches a partial batch under SLA pressure.
func (b *Batcher) flush() {
	now := b.eng.Now()
	// Shed anything already hopeless, dispatch the rest if the head is
	// under pressure. The rebuild reuses the queue's backing array, and
	// the vacated tail is zeroed: without that, every shed sample stayed
	// alive in the array's tail until a future append overwrote it — on
	// long-horizon runs, retained memory for requests the system had
	// already flushed.
	kept := b.queue[:0]
	for _, s := range b.queue {
		if b.deadlineHopeless(s, now) {
			b.coll.Drop(s, now, audit.ReasonSLAFlush)
			continue
		}
		kept = append(kept, s)
	}
	clearSamples(b.queue[len(kept):])
	b.queue = kept
	if len(b.queue) == 0 {
		return
	}
	head := b.queue[0]
	slack := (head.Deadline - now) * (1 - b.slackFrac)
	if slack <= b.effectiveService()*1.05 {
		b.dispatch(b.batch) // dispatch re-arms for the next head
		return
	}
	b.armFlush()
}

// Flush force-dispatches all queued samples (end of run).
func (b *Batcher) Flush() {
	for len(b.queue) > 0 {
		b.dispatch(b.batch)
	}
}

// QueueLen reports the current queue depth.
func (b *Batcher) QueueLen() int { return len(b.queue) }
