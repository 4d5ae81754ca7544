package serving

import (
	"fmt"

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

// Drain finishes a run: it runs the engine dry, flushes every batcher and
// then every runner that implements Flusher, and runs the completions dry.
// It stops at the first engine error (nothing may read a truncated run's
// results) and closes nothing.
func Drain(eng *sim.Engine, batchers []*Batcher, runners ...scheduler.Runner) error {
	if err := eng.RunAll(); err != nil {
		return err
	}
	for _, b := range batchers {
		b.Flush()
	}
	for _, r := range runners {
		if f, ok := r.(Flusher); ok {
			f.FlushAll()
		}
	}
	return eng.RunAll()
}

// drainRun drains a one-runner run and closes its goodput meter at the
// final clock. It installs the event-limit backstop unless the caller
// configured a limit already; an abort is returned, and the collector
// then reflects a truncated run.
func drainRun(eng *sim.Engine, r scheduler.Runner, batchers ...*Batcher) (*scheduler.Collector, error) {
	if eng.EventLimit() == 0 {
		eng.SetEventLimit(defaultEventLimit)
	}
	err := Drain(eng, batchers, r)
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
// the batcher. One engine timer walks the arrivals: after each, it runs
// the next in the same step when nothing else is due first
// (sim.Engine.Inline), and otherwise re-arms itself for it, so an hour at
// 9000 req/s keeps at most one pending schedule instead of 32M
// pre-scheduled closures. Each arrival's sample is minted ahead of the
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
	arrivals = eng.NewTimer(func() {
		for {
			gen.Record(next)
			b.Arrive(next)
			var ok bool
			if next, ok = feed.Next(); !ok {
				return
			}
			if !eng.Inline(next.Arrival) {
				arrivals.Reset(next.Arrival)
				return
			}
		}
	})
	if s, ok := feed.Next(); ok {
		next = s
		arrivals.Reset(next.Arrival)
	}
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
	return drainRun(eng, r)
}

// ScheduleClosedLoop schedules closed-loop clients, which always have
// inputs waiting (§4): a full batch every batch/rate virtual seconds up
// to and including horizon, minted by gen at its arrival time and
// ingested by r. Samples carry the SLO deadline so goodput accounting
// matches the paper's definition. It returns the number of samples
// scheduled.
func ScheduleClosedLoop(eng *sim.Engine, r scheduler.Runner, gen *workload.Generator, batch int, rate, horizon, slo float64) int {
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
	return n * batch
}

// BuildFn constructs a fresh engine + runner pair for one goodput probe.
type BuildFn func() (*sim.Engine, scheduler.Runner)

// MaxGoodput binary-searches the highest offered rate a system sustains
// with at most tolFrac of samples dropped or violating SLO, probing each
// candidate rate with a closed-loop run over the horizon. It returns the
// achieved goodput at the best feasible rate (0 if even idle load fails).
// A probe that aborts on its engine's event limit is an error, naming the
// rate and carrying the engine's message: its run is truncated, so it
// proves neither feasibility nor infeasibility. So is a probe that runs
// to completion but does not account for every sample it scheduled
// (served, violated or dropped).
func MaxGoodput(build BuildFn, gen func() *workload.Generator, batch int, slo, horizon, upper, tolFrac float64) (float64, error) {
	lo, hi := 0.0, upper
	best := 0.0
	for i := 0; i < 12; i++ {
		rate := (lo + hi) / 2
		if rate <= 0 {
			break
		}
		eng, r := build()
		scheduled := ScheduleClosedLoop(eng, r, gen(), batch, rate, horizon, slo)
		c, err := drainRun(eng, r)
		total := c.Good.Served + c.Violations + c.Dropped
		switch {
		case err != nil:
			return 0, fmt.Errorf("serving: goodput probe at %.1f req/s: %w", rate, err)
		case total != scheduled:
			return 0, fmt.Errorf("serving: goodput probe at %.1f req/s scheduled %d samples, accounted for %d", rate, scheduled, total)
		case total > 0 && float64(c.Violations+c.Dropped)/float64(total) <= tolFrac:
			lo, best = rate, max(best, c.Good.Goodput())
		default:
			hi = rate
		}
	}
	return best, nil
}
