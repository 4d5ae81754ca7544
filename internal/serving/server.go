package serving

import (
	"e3/internal/scheduler"
	"e3/internal/sim"
	"e3/internal/trace"
	"e3/internal/workload"
)

// Flusher is a runner-side hook to drain partial state at end of run.
type Flusher interface{ FlushAll() }

// defaultEventLimit is the runaway backstop installed when the caller did
// not set one: far above any legitimate experiment, so hitting it means a
// scheduling loop, and the error says so instead of spinning forever.
const defaultEventLimit = 50_000_000

// ensureEventLimit installs the backstop unless the caller configured a
// limit already — drivers must not silently clobber a stricter one.
func ensureEventLimit(eng *sim.Engine) {
	if eng.EventLimit() == 0 {
		eng.SetEventLimit(defaultEventLimit)
	}
}

// drainRun runs the engine dry, flushes end-of-run partial state, and runs
// the resulting completions dry too. Any event-limit abort is returned —
// callers must not read results from a run that was cut short.
func drainRun(eng *sim.Engine, r scheduler.Runner, b *Batcher) (*scheduler.Collector, error) {
	ensureEventLimit(eng)
	err := eng.RunAll()
	if b != nil {
		b.Flush()
	}
	if f, ok := r.(Flusher); ok {
		f.FlushAll()
	}
	if err2 := eng.RunAll(); err == nil {
		err = err2
	}
	c := r.Collector()
	c.Good.CloseAt(eng.Now())
	return c, err
}

// RunOpenLoopStream replays an arrival stream through a dynamic batcher
// and runs the simulation to completion; a materialized trace streams
// through trace.NewSliceStream. It returns the runner's collector for
// inspection, and a non-nil error if the engine aborted on its event
// limit (the collector then reflects a truncated run).
func RunOpenLoopStream(eng *sim.Engine, r scheduler.Runner, b *Batcher, st trace.Stream, gen *workload.Generator, slo float64) (*scheduler.Collector, error) {
	stop := FeedStream(eng, b, st, 0, gen, slo)
	defer stop()
	return drainRun(eng, r, b)
}

// FeedStream schedules a stream's arrivals, each shifted by offset, into
// the batcher. One engine timer walks the arrivals and re-arms itself for
// the next, so an hour at 9000 req/s keeps one pending schedule instead of
// 32M pre-scheduled closures. Each arrival's sample is minted ahead of the
// loop by a workload.Feed on gen, exactly as gen.Next would mint it at
// that virtual time, and is recorded (gen.Record) when it arrives.
//
// The feed's producer owns st and gen's draw state until the returned
// stop runs: stop cancels the timer, signals the producer and joins it,
// and is idempotent. Call it once the engine has consumed the stream, or
// when a run aborts, before touching gen again (SwitchDist, Next).
func FeedStream(eng *sim.Engine, b *Batcher, st trace.Stream, offset float64, gen *workload.Generator, slo float64) (stop func()) {
	feed := gen.Feed(st, offset, slo)
	var next workload.Sample
	var arrivals *sim.Timer
	arm := func() {
		var ok bool
		if next, ok = feed.Next(); ok {
			arrivals.Reset(next.Arrival)
		}
	}
	arrivals = eng.NewTimer(func() {
		gen.Record(next)
		b.Arrive(next)
		arm()
	})
	arm()
	return func() {
		arrivals.Stop()
		feed.Stop()
	}
}

// RunClosedLoop feeds full batches at a fixed offered rate for a horizon
// (ScheduleClosedLoop) and runs the simulation to completion. The error
// reports an event-limit abort, as in RunOpenLoopStream.
func RunClosedLoop(eng *sim.Engine, r scheduler.Runner, gen *workload.Generator, batch int, rate, horizon, slo float64) (*scheduler.Collector, error) {
	ScheduleClosedLoop(eng, r, gen, batch, rate, horizon, slo)
	return drainRun(eng, r, nil)
}

// ScheduleClosedLoop schedules closed-loop clients, which always have
// inputs waiting (§4): a full batch every batch/rate virtual seconds up
// to and including horizon, minted by gen at its arrival time and
// ingested by r. Samples carry the SLO deadline so goodput accounting
// matches the paper's definition.
func ScheduleClosedLoop(eng *sim.Engine, r scheduler.Runner, gen *workload.Generator, batch int, rate, horizon, slo float64) {
	// Arrival times are multiples of the interval computed from an integer
	// counter: accumulating `at += interval` drifts by one ulp per step
	// over long horizons, silently dropping (or adding) the final batch.
	interval := float64(batch) / rate
	n := int(horizon/interval + 1e-9)
	for i := 1; i <= n; i++ {
		at := float64(i) * interval
		eng.At(at, func() {
			r.Ingest(gen.Batch(batch, eng.Now(), slo))
		})
	}
}

// BuildFn constructs a fresh engine + runner pair for one goodput probe.
type BuildFn func() (*sim.Engine, scheduler.Runner)

// MaxGoodput binary-searches the highest offered rate a system sustains
// with at most tolFrac of samples dropped or violating SLO, probing each
// candidate rate with a closed-loop run over the horizon. It returns the
// achieved goodput at the best feasible rate (0 if even idle load fails).
func MaxGoodput(build BuildFn, gen func() *workload.Generator, batch int, slo, horizon, upper, tolFrac float64) float64 {
	probe := func(rate float64) (bool, float64) {
		eng, r := build()
		c, err := RunClosedLoop(eng, r, gen(), batch, rate, horizon, slo)
		if err != nil {
			// An event-limit abort means the probe rate drove the system
			// into a scheduling loop: treat the rate as infeasible.
			return false, 0
		}
		total := c.Good.Served + c.Violations + c.Dropped
		if total == 0 {
			return false, 0
		}
		bad := float64(c.Violations+c.Dropped) / float64(total)
		return bad <= tolFrac, c.Good.Goodput()
	}
	lo, hi := 0.0, upper
	best := 0.0
	for i := 0; i < 12; i++ {
		mid := (lo + hi) / 2
		if mid <= 0 {
			break
		}
		ok, goodput := probe(mid)
		if ok {
			lo = mid
			if goodput > best {
				best = goodput
			}
		} else {
			hi = mid
		}
	}
	return best
}
