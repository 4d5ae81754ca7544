package scheduler

import (
	"fmt"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/exec"
	"e3/internal/sim"
	"e3/internal/workload"
)

// DataParallel runs the whole model on every instance in eager mode —
// how the vanilla and naive-EE baselines serve. Vanilla models simply have
// no ramps; EE models shrink their batches mid-flight and pay per-ramp
// synchronization (§2.3).
type DataParallel struct {
	eng       *sim.Engine
	clus      *cluster.Cluster
	model     *ee.EEModel
	coll      *Collector
	instances []*instance
	rr        int
	// ewmaBatch tracks recent per-batch service time for backlog-aware
	// admission control.
	ewmaBatch   float64
	completions completionJobs
}

// NewDataParallel builds a runner over the given device indices.
func NewDataParallel(eng *sim.Engine, clus *cluster.Cluster, m *ee.EEModel, devices []int, coll *Collector) (*DataParallel, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("scheduler: data-parallel runner needs at least one device")
	}
	d := &DataParallel{eng: eng, clus: clus, model: m, coll: coll,
		completions: completionJobs{coll: coll}}
	for _, idx := range devices {
		if idx < 0 || idx >= clus.Size() {
			return nil, fmt.Errorf("scheduler: device index %d out of range", idx)
		}
		inst := &instance{device: idx}
		inst.rearm = func() { d.runNext(inst) }
		d.instances = append(d.instances, inst)
		coll.Register(&clus.Devices[idx], idx)
	}
	return d, nil
}

// Collector implements Runner.
func (d *DataParallel) Collector() *Collector { return d.coll }

// Ingest implements Runner.
func (d *DataParallel) Ingest(batch []workload.Sample) {
	if len(batch) == 0 {
		return
	}
	var pick *instance
	n := len(d.instances)
	for i := 0; i < n; i++ {
		inst := d.instances[(d.rr+i)%n]
		if pick == nil || len(inst.queue) < len(pick.queue) {
			pick = inst
		}
	}
	d.rr++
	d.coll.Dispatched(batch, d.eng.Now(), 0, pick.device)
	pick.queue = append(pick.queue, batch)
	if !pick.busy {
		d.runNext(pick)
	}
}

func (d *DataParallel) runNext(inst *instance) {
	if len(inst.queue) == 0 {
		inst.busy = false
		return
	}
	inst.busy = true
	batch := inst.queue[0]
	// Compact in place so the popped head does not linger in the array.
	n := copy(inst.queue, inst.queue[1:])
	inst.queue[n] = nil
	inst.queue = inst.queue[:n]

	dev := &d.clus.Devices[inst.device]
	L := d.model.Base.NumLayers()
	res := exec.RunEager(d.model, batch, dev.Spec(), dev.Slowdown)
	d.coll.Executed(inst.device, d.model.Name, 0, 1, L, batch, d.eng.Now(), &res)
	if d.ewmaBatch == 0 {
		d.ewmaBatch = res.Duration
	} else {
		d.ewmaBatch = 0.9*d.ewmaBatch + 0.1*res.Duration
	}
	// RunEager emits completions in ramp order with non-decreasing
	// offsets; samples exiting at the same ramp share one. Group each
	// equal-offset run into a single engine event — within-run order is the
	// slice order and runs stay in emission order, so execution matches the
	// per-sample events this replaces.
	for lo, comps := 0, res.Completions; lo < len(comps); {
		hi := lo + 1
		for hi < len(comps) && comps[hi].Offset == comps[lo].Offset {
			hi++
		}
		d.completions.schedule(d.eng, comps[lo].Offset, comps[lo:hi])
		lo = hi
	}
	d.eng.After(res.Duration, inst.rearm)
}

// QueueDepth reports total batches awaiting execution (for backlog-aware
// admission control in the serving layer).
func (d *DataParallel) QueueDepth() int {
	n := 0
	for _, inst := range d.instances {
		n += len(inst.queue)
		if inst.busy {
			n++
		}
	}
	return n
}

// BacklogDelay estimates how long a batch dispatched now will wait before
// execution starts, from the queued work and recent batch service times.
func (d *DataParallel) BacklogDelay() float64 {
	return float64(d.QueueDepth()) * d.ewmaBatch / float64(len(d.instances))
}
