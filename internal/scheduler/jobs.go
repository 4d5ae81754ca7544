package scheduler

import (
	"e3/internal/exec"
	"e3/internal/sim"
	"e3/internal/workload"
)

// completionJobs schedules grouped completion events: one engine event
// completes a group of samples at the time it fires, in slice order. Jobs
// are pooled and each carries its callback, bound once when the job is
// first built, so scheduling a group allocates nothing once warm.
type completionJobs struct {
	coll *Collector
	// release, when set, takes back a group's completion slice once the
	// collector has consumed it (the pipeline recycles its buffers).
	release func([]exec.Completion)
	free    []*completionJob
}

type completionJob struct {
	owner *completionJobs
	eng   *sim.Engine
	comps []exec.Completion
	fire  func()
}

// schedule completes comps delay seconds from eng's now. The runner passes
// its engine on every call instead of the pool keeping one, because a
// runner's engine may be rebound after construction.
func (p *completionJobs) schedule(eng *sim.Engine, delay float64, comps []exec.Completion) {
	var j *completionJob
	if k := len(p.free); k > 0 {
		j = p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
	} else {
		j = &completionJob{owner: p}
		j.fire = j.run
	}
	j.eng, j.comps = eng, comps
	eng.After(delay, j.fire)
}

func (j *completionJob) run() {
	p := j.owner
	done := j.eng.Now()
	for _, c := range j.comps {
		p.coll.Complete(c.Sample, done, c.ExitLayer)
	}
	comps := j.comps
	j.eng, j.comps = nil, nil
	p.free = append(p.free, j)
	if p.release != nil {
		p.release(comps)
	}
}

// transferJob is the pipeline's pooled survivor hand-off event: when it
// fires, survivors land in stage si's merge queue on instance dest.
type transferJob struct {
	p         *Pipeline
	si        int
	survivors []workload.Sample
	dest      *instance
	fire      func()
}

// scheduleTransfer hands survivors to stage si on dest delay seconds from
// now.
func (p *Pipeline) scheduleTransfer(delay float64, si int, survivors []workload.Sample, dest *instance) {
	var j *transferJob
	if k := len(p.xferFree); k > 0 {
		j = p.xferFree[k-1]
		p.xferFree[k-1] = nil
		p.xferFree = p.xferFree[:k-1]
	} else {
		j = &transferJob{p: p}
		j.fire = j.run
	}
	j.si, j.survivors, j.dest = si, survivors, dest
	p.eng.After(delay, j.fire)
}

func (j *transferJob) run() {
	p, si, survivors, dest := j.p, j.si, j.survivors, j.dest
	j.survivors, j.dest = nil, nil
	p.xferFree = append(p.xferFree, j)
	p.receive(si, survivors, dest)
}
