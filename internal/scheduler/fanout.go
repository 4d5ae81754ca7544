package scheduler

import (
	"e3/internal/audit"
	"e3/internal/workload"
)

// fanout is the collector seen from the views' side. Its methods are the
// one place that decides which view sees which boundary: the Collector
// calls them inline when it does not stream, and the stream's consumer
// calls them with each decoded record when it does. They touch only the
// ledger, the views and the fan-out's own fields (devs, flameWindows),
// never the collector's loop-side state.
type fanout Collector

func (f *fanout) register(device int, id, kind string) {
	for len(f.devs) <= device {
		f.devs = append(f.devs, devView{})
	}
	f.devs[device] = devView{id: id, kind: kind, flame: f.Flame.Register(id, kind)}
}

func (f *fanout) arrived(id int64, at float64) {
	f.Audit.Arrived(id, at)
	f.Tracer.Arrive()
}

func (f *fanout) queued(s workload.Sample, at float64) {
	f.Audit.Queued(s.ID, at)
	f.Attr.Queued(s, at)
}

func (f *fanout) queueWait(n int, head, at float64) {
	f.Tracer.QueueWait(n, head, at)
}

func (f *fanout) dispatched(batch []workload.Sample, at float64, stage, device int) {
	if f.Audit != nil {
		for _, s := range batch {
			f.Audit.Dispatched(s.ID, at, stage, device)
		}
	}
	if f.Attr != nil {
		for _, s := range batch {
			f.Attr.Dispatched(s, at, stage)
		}
	}
}

func (f *fanout) executed(device int, model string, stage, from, to int, batch []workload.Sample, start, end, ramp, pad float64) {
	d := &f.devs[device]
	f.Tracer.Execute(d.id, d.kind, stage, len(batch), start, end)
	f.Attr.Executed(stage, batch, start, end)
	if f.Flame != nil {
		f.Flame.Execute(d.flame, model, stage, from, to, start, end, ramp, pad)
	}
}

func (f *fanout) transferred(fromStage, n int, start, end float64) {
	f.Tracer.Transfer(fromStage, n, start, end)
	f.Flame.Transfer(fromStage+1, start, end)
}

func (f *fanout) merged(survivors []workload.Sample, at float64, stage int) {
	if f.Audit != nil {
		for _, s := range survivors {
			f.Audit.Merged(s.ID, at, stage)
		}
	}
	if f.Attr != nil {
		for _, s := range survivors {
			f.Attr.Merged(s, at, stage)
		}
	}
}

func (f *fanout) fused(stage, n int, start, end float64) {
	f.Tracer.Fuse(stage, n, start, end)
	f.Flame.Fuse(stage, start, end)
}

func (f *fanout) completed(s workload.Sample, at float64, exitLayer int) {
	f.Audit.Completed(s.ID, at, exitLayer)
	f.Tracer.Complete(at - s.Arrival)
	f.Attr.Completed(s, at)
}

func (f *fanout) dropped(s workload.Sample, at float64, reason audit.Reason) {
	f.Audit.Dropped(s.ID, at, reason)
	f.Tracer.Drop(string(reason))
	f.Attr.Dropped(s, at)
}

// control records a control-plane instant of window w.
func (f *fanout) control(op uint64, w int, at float64) {
	switch op {
	case opReplan:
		f.Tracer.Replan(w, at)
	case opPlanCacheHit:
		f.Tracer.PlanCacheHit(w, at)
	case opSLOBurn:
		f.Tracer.SLOBurn(w, at)
	}
}

func (f *fanout) snapshot() {
	f.flameWindows = append(f.flameWindows, f.Flame.Profile())
}
