package main

import (
	"time"

	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/experiments"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/trace"
	"e3/internal/workload"
)

// The serving constants experiments.RunSimBench uses (unexported there).
// The equivalence test pins this file's stack to RunSimBench digest for
// digest, so a drift on either side fails loudly.
const (
	sloS      = 0.100
	slackFrac = 0.2
)

// clusterConfig is the cluster-* setting: the paper-scale sim bench
// (BERT-Base/DeeBERT, 8×V100, B=8, stride-1000 ledger, pooled batches)
// at the given Poisson rate and horizon.
func clusterConfig(rate, horizon float64, seed int64) experiments.SimBenchConfig {
	cfg := experiments.DefaultSimBench()
	cfg.Rate, cfg.Horizon, cfg.Seed = rate, horizon, seed
	return cfg
}

// clusterStack is the serving stack experiments.RunSimBench builds, put
// together here from the same public constructors so the benchmark can
// either hand it to serving.RunOpenLoopStream or drive it itself.
type clusterStack struct {
	eng  *sim.Engine
	coll *scheduler.Collector
	pipe *scheduler.Pipeline
	b    *serving.Batcher
	gen  *workload.Generator
	st   *trace.PoissonStream
	// runner is the timing decorator between batcher and pipeline on the
	// traced path; nil on the untraced one.
	runner *timedRunner
}

// newClusterStack builds a stack for plan with the given ledger (nil runs
// unaudited). traced puts a timing decorator between batcher and pipeline.
func newClusterStack(cfg experiments.SimBenchConfig, plan optimizer.Plan, ledger *audit.Ledger, traced bool) (*clusterStack, error) {
	base := model.BERTBase()
	dee := ee.NewDeeBERT(base, 0.4)
	eng := sim.NewEngine()
	eng.SetEventLimit(uint64(cfg.Rate*cfg.Horizon)*8 + 1_000_000)
	coll := scheduler.NewCollector(base.NumLayers(), sloS, 0)
	coll.Audit = ledger
	pipe, err := scheduler.NewPipeline(eng, cluster.Homogeneous(gpu.V100, cfg.GPUs), dee, plan, coll)
	if err != nil {
		return nil, err
	}
	s := &clusterStack{eng: eng, coll: coll, pipe: pipe}
	var r scheduler.Runner = pipe
	if traced {
		s.runner = &timedRunner{inner: pipe}
		r = s.runner
	}
	s.b = serving.NewBatcher(eng, r, cfg.Batch, plan.Latency, slackFrac)
	if cfg.Pooled {
		pool := workload.NewBatchPool()
		s.b.SetPool(pool)
		pipe.SetPool(pool)
	}
	s.gen = workload.NewGenerator(workload.Mix(0.8), cfg.Seed)
	s.gen.SetAudit(ledger)
	s.st = trace.NewPoissonStream(cfg.Rate, cfg.Horizon, cfg.Seed)
	return s, nil
}

// serve runs the whole trace through serving.RunOpenLoopStream.
func (s *clusterStack) serve() error {
	_, err := serving.RunOpenLoopStream(s.eng, s.pipe, s.b, s.st, s.gen, sloS)
	return err
}

// outcome reads the finished run's virtual results and checks
// conservation.
func (s *clusterStack) outcome() outcome {
	c := s.coll
	out := outcome{
		Requests:    c.Good.Served + c.Violations + c.Dropped,
		Served:      c.Good.Served,
		Completions: c.Lat.Count(),
		Goodput:     c.Good.Goodput(),
		P50:         c.Lat.Quantile(0.5),
		P999:        c.Lat.Quantile(0.999),
		Events:      s.eng.Processed(),
	}
	if c.Audit != nil {
		rep := c.AuditReport()
		out.Requests = rep.Samples
		if !rep.OK() {
			out.fail("audit: %v", rep.Err())
		}
		out.Digest = digest(c.Audit.Digest())
	}
	return out
}

// traceEvery: the traced loop times one arrival in traceEvery, and one
// flush-timer batch in traceEvery, and reports per-call means; reading
// the clock around every call would double the cost it measures. Prime,
// so the sample does not lock onto the batch size's period.
const traceEvery = 13

// clockNs is what one time.Now costs, measured once per process: each
// timed span includes the clock reads taken inside it, and the traced
// loop takes them back out.
func clockNs() int64 {
	const reads = 1000
	runs := make([]float64, 31)
	for i := range runs {
		t0 := time.Now()
		for j := 0; j < reads; j++ {
			time.Now()
		}
		runs[i] = float64(time.Since(t0).Nanoseconds()) / reads
	}
	return int64(median(runs))
}

// timedRunner is the scheduler.Runner decorator of the traced path: it
// times the Ingest calls the traced loop samples and tells apart the
// ones nested in Batcher.Arrive from the ones flush timers make.
type timedRunner struct {
	inner *scheduler.Pipeline
	clock int64
	// inArrival is set during every arrival, timedArrival during the
	// sampled ones.
	inArrival, timedArrival bool
	// calls and samples count every batch and the samples in them;
	// flushes the batches made outside arrivals.
	calls, samples, flushes int64
	// timedCalls and ns are the sampled batches and their time in Ingest;
	// nestedNs is what the ones nested in a timed arrival added to it.
	timedCalls, ns, nestedNs int64
}

func (r *timedRunner) Ingest(batch []workload.Sample) {
	r.calls++
	r.samples += int64(len(batch))
	sampled := r.timedArrival
	if !r.inArrival {
		r.flushes++
		sampled = r.flushes%traceEvery == 0
	}
	if !sampled {
		r.inner.Ingest(batch)
		return
	}
	t0 := time.Now()
	r.inner.Ingest(batch)
	d := time.Since(t0).Nanoseconds()
	r.timedCalls++
	r.ns += d - r.clock
	if r.timedArrival {
		r.nestedNs += d + r.clock
	}
}

func (r *timedRunner) Collector() *scheduler.Collector { return r.inner.Collector() }

// dataPlane is the wall-clock split of one traced run, in nanoseconds,
// clock reads taken out.
type dataPlane struct {
	// loop is the whole event loop, drain included.
	loop int64
	// timed counts the sampled arrivals; arrivals is their total time,
	// and gen, arrive and next its Generator.Next, Batcher.Arrive (nested
	// Ingest included) and PoissonStream.Next parts.
	timed, arrivals, gen, arrive, next int64
}

// runTraced serves the trace the way serving.RunOpenLoopStream does, but
// with the benchmark scheduling each arrival and stepping the engine
// itself, timing a sample of the calls into each layer. The simulated run
// is the same one: the equivalence test checks digest for digest.
func (s *clusterStack) runTraced() dataPlane {
	var dp dataPlane
	eng, b, gen, st, tr := s.eng, s.b, s.gen, s.st, s.runner
	tr.clock = clockNs()
	clock := tr.clock
	n := 0
	var step func()
	step = func() {
		n++
		tr.inArrival = true
		if n%traceEvery != 0 {
			b.Arrive(gen.Next(eng.Now(), sloS))
			tr.inArrival = false
			if at, ok := st.Next(); ok {
				eng.At(at, step)
			}
			return
		}
		t0 := time.Now()
		smp := gen.Next(eng.Now(), sloS)
		t1 := time.Now()
		tr.timedArrival = true
		b.Arrive(smp)
		tr.inArrival, tr.timedArrival = false, false
		t2 := time.Now()
		at, ok := st.Next()
		t3 := time.Now()
		if ok {
			eng.At(at, step)
		}
		t4 := time.Now()
		dp.timed++
		dp.gen += t1.Sub(t0).Nanoseconds() - clock
		dp.arrive += t2.Sub(t1).Nanoseconds() - clock
		dp.next += t3.Sub(t2).Nanoseconds() - clock
		dp.arrivals += t4.Sub(t0).Nanoseconds() - 4*clock
	}
	if at, ok := st.Next(); ok {
		eng.At(at, step)
	}
	start := time.Now()
	for eng.Step() {
	}
	b.Flush()
	s.pipe.FlushAll()
	for eng.Step() {
	}
	dp.loop = time.Since(start).Nanoseconds()
	s.coll.Good.CloseAt(eng.Now())
	return dp
}
