package scheduler

import (
	"fmt"

	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/exec"
	"e3/internal/gpu"
	"e3/internal/optimizer"
	"e3/internal/sim"
	"e3/internal/workload"
)

// Pipeline executes an E3 plan: one stage per split, each with replicated
// instances pinned to devices of the planned kind; survivor batches flow
// to the next stage's merge queue where full batches are re-formed, and
// every instance starts its next batch as soon as it finishes the current
// one (pipelining, §3.2.2). Straggling instances are detected by comparing
// observed to planned stage time and excluded from future dispatch (§3.3).
type Pipeline struct {
	eng   *sim.Engine
	clus  *cluster.Cluster
	model *ee.EEModel
	plan  optimizer.Plan
	coll  *Collector

	stages []*stage
	// MaxMergeWait bounds how long a survivor may sit in a merge queue
	// before a partial batch is dispatched.
	maxMergeWait float64
	// stragglerFactor flags an instance whose batch ran this many times
	// slower than planned.
	stragglerFactor float64
	// pool optionally recycles batch slices: ingested batches are dead
	// once RunSplit has copied completions and survivors out of them, and
	// survivor slices once the merge queue has absorbed them. Nil = no
	// recycling (identical behavior, more allocation).
	pool *workload.BatchPool
	// compFree recycles completion buffers (active only when pool is set):
	// a buffer is handed to SplitTable.RunInto, rides the grouped completion
	// event, and returns here once the collector has consumed it.
	compFree [][]exec.Completion
	// completions and xferFree pool the two events every executed batch
	// schedules: its grouped completion and its survivor hand-off.
	completions completionJobs
	xferFree    []*transferJob
}

// maxCompFree bounds the completion-buffer free list, mirroring the batch
// pool's per-class bound.
const maxCompFree = 64

type stage struct {
	split optimizer.Split
	// table is the split compiled for the stage's GPU kind at batch sizes
	// up to the plan's B0, built once per pipeline (so once per replan
	// window); every batch and the straggler check read it.
	table *exec.SplitTable
	// res is the stage's execution scratch, reused batch after batch. Its
	// Completions and Survivors are handed to events, so runNext gives it
	// fresh ones before every run.
	res       exec.Result
	instances []*instance
	merge     []pendingSample
	flushArm  bool
	// flushFn is the prebuilt partial-batch flush event, built once so
	// drain does not allocate a fresh closure per arm.
	flushFn func()
	rr      int
	// downstream is the planned residual time from this stage's dispatch
	// to completion (its own stage time plus everything after); the merge
	// flush uses it to dispatch partial batches before deadlines burn.
	downstream float64
}

type pendingSample struct {
	s  workload.Sample
	at float64
	// dest is the instance whose device the survivor's activations were
	// transferred to; batches formed from the merge queue dispatch there
	// so realized comm time matches realized placement.
	dest *instance
}

type instance struct {
	device  int // index into cluster.Devices
	busy    bool
	queue   [][]workload.Sample
	strikes int
	// excluded instances receive no new work (§3.3 straggler handling).
	excluded bool
	// rearm is the prebuilt "device freed, start the next batch" event,
	// scheduled once per executed batch.
	rearm func()
}

// NewPipeline binds a plan to concrete devices. It fails if the cluster
// cannot supply the planned replica counts per kind.
func NewPipeline(eng *sim.Engine, clus *cluster.Cluster, m *ee.EEModel, plan optimizer.Plan, coll *Collector) (*Pipeline, error) {
	p := &Pipeline{
		eng: eng, clus: clus, model: plan.ExecModel(m), plan: plan, coll: coll,
		maxMergeWait:    plan.CycleTime,
		stragglerFactor: 1.5,
	}
	p.completions = completionJobs{coll: coll, release: p.putCompBuf}
	if p.maxMergeWait <= 0 {
		p.maxMergeWait = 0.010
	}
	used := make(map[int]bool)
	for _, sp := range plan.Splits {
		st := &stage{split: sp}
		pool := clus.OfKind(sp.Kind)
		for _, devIdx := range pool {
			if len(st.instances) == sp.Replicas {
				break
			}
			if used[devIdx] {
				continue
			}
			used[devIdx] = true
			st.instances = append(st.instances, &instance{device: devIdx})
			coll.Register(&clus.Devices[devIdx], devIdx)
		}
		if len(st.instances) != sp.Replicas {
			return nil, fmt.Errorf("scheduler: need %d %s devices for split [%d,%d], cluster has fewer free",
				sp.Replicas, sp.Kind, sp.From, sp.To)
		}
		st.table = exec.CompileSplit(p.model, sp.From, sp.To, gpu.Get(sp.Kind), plan.Batch)
		p.stages = append(p.stages, st)
	}
	// Residual path time per stage, back to front.
	rest := 0.0
	for i := len(p.stages) - 1; i >= 0; i-- {
		rest += p.stages[i].split.StageTime + p.stages[i].split.CommTime
		p.stages[i].downstream = rest
	}
	// Prebuild the per-instance rearm and per-stage flush events: both fire
	// once per executed batch / armed flush on the hot path, and building
	// them here means scheduling them allocates nothing.
	for si, st := range p.stages {
		for _, inst := range st.instances {
			inst.rearm = func() { p.runNext(si, inst) }
		}
		st.flushFn = func() {
			st.flushArm = false
			p.flush(si)
		}
	}
	return p, nil
}

// Collector implements Runner.
func (p *Pipeline) Collector() *Collector { return p.coll }

// SetPool attaches a batch pool shared with the batcher: ingested batches
// are returned once their samples have been copied into completions and
// survivors, and survivor slices once merged. A nil pool (the default)
// allocates as before.
func (p *Pipeline) SetPool(pool *workload.BatchPool) { p.pool = pool }

// Ingest implements Runner: a formed batch enters stage 0.
func (p *Pipeline) Ingest(batch []workload.Sample) {
	if len(batch) == 0 {
		return
	}
	p.dispatch(0, batch)
}

// pickInstance selects the least-loaded non-excluded instance of a stage
// (round-robin tie-break). It is called both at dispatch and at survivor
// hand-off time, so transfer cost is computed against the instance the
// batch will actually land on.
func (p *Pipeline) pickInstance(si int) *instance {
	st := p.stages[si]
	var pick *instance
	n := len(st.instances)
	for i := 0; i < n; i++ {
		inst := st.instances[(st.rr+i)%n]
		if inst.excluded {
			continue
		}
		if pick == nil || len(inst.queue) < len(pick.queue) {
			pick = inst
		}
	}
	if pick == nil {
		// Every instance excluded: the baseline itself must be wrong.
		// Fail open by clearing the stage's exclusions and retrying.
		for _, inst := range st.instances {
			inst.excluded = false
			inst.strikes = 0
		}
		pick = st.instances[st.rr%n]
	}
	st.rr++
	return pick
}

// dispatch hands a batch to the least-loaded non-excluded instance of a
// stage.
func (p *Pipeline) dispatch(si int, batch []workload.Sample) {
	p.dispatchTo(si, p.pickInstance(si), batch)
}

// dispatchTo enqueues a batch on a specific instance.
func (p *Pipeline) dispatchTo(si int, pick *instance, batch []workload.Sample) {
	p.coll.Dispatched(batch, p.eng.Now(), si, pick.device)
	pick.queue = append(pick.queue, batch)
	if !pick.busy {
		p.runNext(si, pick)
	}
}

// runNext starts the instance's next queued batch.
func (p *Pipeline) runNext(si int, inst *instance) {
	if len(inst.queue) == 0 {
		inst.busy = false
		return
	}
	inst.busy = true
	batch := inst.queue[0]
	// Compact the per-instance queue in place: advancing the slice strands
	// the popped head (and its batch) in the backing array until a realloc.
	n := copy(inst.queue, inst.queue[1:])
	inst.queue[n] = nil
	inst.queue = inst.queue[:n]

	st := p.stages[si]

	// Shed stale work (Clockwork-style, §3.1): a backlogged sample that
	// cannot meet its deadline even if it ran right now is dropped rather
	// than computed late — overload drains at shed speed, not compute
	// speed.
	now := p.eng.Now()
	viable := batch[:0]
	for _, smp := range batch {
		if smp.Deadline < now+st.downstream {
			p.coll.Drop(smp, now, audit.ReasonStaleShed)
			continue
		}
		viable = append(viable, smp)
	}
	batch = viable
	if len(batch) == 0 {
		p.pool.Put(batch) // every sample shed; the array is dead
		p.runNext(si, inst)
		return
	}

	dev := &p.clus.Devices[inst.device]
	// Hand the split recycled output buffers: survivors come from the
	// batch pool (they are Put back once merged), completions from the
	// pipeline's own free list (Put back after the grouped completion event
	// fires). With no pool both start empty and the run allocates as
	// RunSplit would — either way the values written are identical.
	res := &st.res
	res.Completions, res.Survivors = p.getCompBuf(len(batch)), nil
	if p.pool != nil {
		res.Survivors = p.pool.Get(len(batch))[:0]
	}
	st.table.RunInto(batch, dev.Slowdown, res)
	p.coll.Executed(inst.device, p.model.Name, si, st.split.From, st.split.To, batch, now, res)

	// Straggler detection (§3.3): compare against the planned time for
	// this exact batch size — partial batches have high fixed costs, so
	// linear scaling of the stage time would flag healthy devices.
	planned := st.table.Planned(len(batch))
	if planned > 0 && res.Duration > p.stragglerFactor*planned {
		inst.strikes++
		if inst.strikes >= 2 {
			inst.excluded = true
		}
	}

	// RunSplit stamps every completion of a batch with the same offset
	// (compute end + handoff), so one engine event completes them all:
	// within-batch order is the slice order, matching the per-sample events
	// this replaces (consecutive seq at equal time), and the heap carries
	// one event per batch instead of one per sample.
	if comps := res.Completions; len(comps) > 0 {
		p.completions.schedule(p.eng, comps[0].Offset, comps)
	} else {
		p.putCompBuf(res.Completions)
	}
	// Completions and survivors are value copies, so the ingested batch is
	// dead from here on and its array can back a future dispatch.
	p.pool.Put(batch)
	if len(res.Survivors) > 0 && si+1 < len(p.stages) {
		// Choose the target instance now, before computing transfer time:
		// dispatch round-robins across replicas, and on clusters with
		// heterogeneous links the comm time differs per target device.
		target := p.pickInstance(si + 1)
		comm := p.clus.Link(inst.device, target.device).
			TransferTime(p.model.Base.Layers[st.split.To-1].ActBytes * float64(len(res.Survivors)))
		xferStart := now + res.Duration + res.HandoffDelay
		p.coll.Transferred(si, len(res.Survivors), xferStart, xferStart+comm)
		p.scheduleTransfer(res.Duration+res.HandoffDelay+comm, si+1, res.Survivors, target)
	} else {
		// No survivors to forward (all exited, or final stage): the
		// survivors buffer is idle — recycle it now.
		p.pool.Put(res.Survivors)
	}
	// Pipelining: the instance frees at compute completion; handoff and
	// transfer overlap the next batch.
	p.eng.After(res.Duration, inst.rearm)
}

// receive merges survivors into a stage's queue and forms batches. dest is
// the instance their activations were transferred to.
func (p *Pipeline) receive(si int, survivors []workload.Sample, dest *instance) {
	st := p.stages[si]
	now := p.eng.Now()
	p.coll.Merged(survivors, now, si)
	for _, s := range survivors {
		st.merge = append(st.merge, pendingSample{s: s, at: now, dest: dest})
	}
	// The merge queue copied every survivor by value; recycle the slice.
	p.pool.Put(survivors)
	p.drain(si)
}

// takeMerged removes the first n merge-queue entries of a stage, returning
// the formed batch (drawn from the pool when one is attached) and the
// transfer destination of its head. The merge queue is compacted in place
// so consumed entries do not linger in the backing array.
func (st *stage) takeMerged(n int, pool *workload.BatchPool) ([]workload.Sample, *instance) {
	batch := pool.Get(n)
	dest := st.merge[0].dest
	for i := 0; i < n; i++ {
		batch[i] = st.merge[i].s
	}
	m := copy(st.merge, st.merge[n:])
	for i := m; i < len(st.merge); i++ {
		st.merge[i] = pendingSample{}
	}
	st.merge = st.merge[:m]
	return batch, dest
}

// fuseAndDispatch forms a batch of n from the stage's merge queue and
// dispatches it, recording the fusion wait (head entry → batch formation)
// as a telemetry span.
func (p *Pipeline) fuseAndDispatch(si, n int) {
	st := p.stages[si]
	headAt := st.merge[0].at
	batch, dest := st.takeMerged(n, p.pool)
	p.coll.Fused(si, len(batch), headAt, p.eng.Now())
	p.dispatchMerged(si, dest, batch)
}

// dispatchMerged hands a merge-formed batch to the instance its head's
// activations already live on, falling back to a fresh pick if that
// instance has since been excluded.
func (p *Pipeline) dispatchMerged(si int, dest *instance, batch []workload.Sample) {
	if dest == nil || dest.excluded {
		dest = p.pickInstance(si)
	}
	p.dispatchTo(si, dest, batch)
}

// flushDeadline is the latest time the merge head may sit before a partial
// batch must go: its SLA dispatch point or the age bound, whichever is
// sooner.
func (p *Pipeline) flushDeadline(si int, head pendingSample) float64 {
	st := p.stages[si]
	slaAt := head.s.Deadline - st.downstream*1.3
	ageAt := head.at + p.maxMergeWait
	if slaAt < ageAt {
		return slaAt
	}
	return ageAt
}

// drain dispatches full batches and arms the partial-batch flush timer.
func (p *Pipeline) drain(si int) {
	st := p.stages[si]
	b0 := p.plan.Batch
	for len(st.merge) >= b0 {
		p.fuseAndDispatch(si, b0)
	}
	if len(st.merge) > 0 && !st.flushArm {
		st.flushArm = true
		delay := p.flushDeadline(si, st.merge[0]) - p.eng.Now()
		if delay < 0 {
			delay = 0
		}
		p.eng.After(delay, st.flushFn)
	}
}

// getCompBuf returns a zero-length completion buffer with capacity for n
// entries, recycled when the free list has one. Buffers are only recycled
// when a batch pool is attached; otherwise it returns nil and append
// allocates exactly as the unpooled path always has.
func (p *Pipeline) getCompBuf(n int) []exec.Completion {
	if p.pool == nil {
		return nil
	}
	if k := len(p.compFree); k > 0 {
		b := p.compFree[k-1]
		p.compFree[k-1] = nil
		p.compFree = p.compFree[:k-1]
		if cap(b) >= n {
			return b[:0]
		}
	}
	return make([]exec.Completion, 0, n)
}

// putCompBuf zeroes a completion buffer and files it for reuse; the caller
// must not retain any alias afterwards.
func (p *Pipeline) putCompBuf(b []exec.Completion) {
	if p.pool == nil || cap(b) == 0 || len(p.compFree) >= maxCompFree {
		return
	}
	b = b[:cap(b)]
	for i := range b {
		b[i] = exec.Completion{}
	}
	p.compFree = append(p.compFree, b[:0])
}

// flush dispatches a partial batch whose head can wait no longer.
func (p *Pipeline) flush(si int) {
	st := p.stages[si]
	if len(st.merge) == 0 {
		return
	}
	now := p.eng.Now()
	if now+1e-12 < p.flushDeadline(si, st.merge[0]) {
		// Head changed since arming; re-arm for the new head.
		p.drain(si)
		return
	}
	n := len(st.merge)
	if n > p.plan.Batch {
		n = p.plan.Batch
	}
	p.fuseAndDispatch(si, n)
	p.drain(si)
}

// ExcludedInstances reports how many instances the straggler monitor has
// taken out of rotation.
func (p *Pipeline) ExcludedInstances() int {
	n := 0
	for _, st := range p.stages {
		for _, inst := range st.instances {
			if inst.excluded {
				n++
			}
		}
	}
	return n
}

// PendingMerge reports queued survivors awaiting batch formation (for
// tests and drain-at-shutdown).
func (p *Pipeline) PendingMerge() int {
	n := 0
	for _, st := range p.stages {
		n += len(st.merge)
	}
	return n
}

// FlushAll force-dispatches every partial merge queue (end of run).
func (p *Pipeline) FlushAll() {
	for si := range p.stages {
		st := p.stages[si]
		for len(st.merge) > 0 {
			n := len(st.merge)
			if n > p.plan.Batch {
				n = p.plan.Batch
			}
			p.fuseAndDispatch(si, n)
		}
	}
}
