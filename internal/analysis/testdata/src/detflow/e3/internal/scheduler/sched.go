// Package scheduler exercises detflow's taint rule: wall-clock-derived
// values must not reach engine schedule times, even across call chains
// and sink wrappers.
package scheduler

import (
	"e3/internal/jitter"
	"e3/internal/sim"
)

// Bad schedules at a wall-clock-derived time that crossed two call edges
// (time.Now → jitter.Raw → jitter.Scaled) before reaching the sink.
func Bad(e *sim.Engine, f func()) {
	t := jitter.Scaled()
	e.At(t, f) // want `value derived from time\.Now \(via jitter\.Raw → jitter\.Scaled\) flows into Engine\.At \(an engine schedule time\)`
}

// Good schedules at virtual time.
func Good(e *sim.Engine, f func()) {
	e.At(e.Now()+1, f)
}

// BadTimer re-arms a timer at a wall-clock-derived time.
func BadTimer(e *sim.Engine, tm *sim.Timer) {
	at := e.Now() + jitter.Scaled()
	tm.Reset(at) // want `value derived from time\.Now \(via jitter\.Raw → jitter\.Scaled\) flows into Timer\.Reset \(an engine schedule time\)`
}

// GoodTimer re-arms a timer at virtual time.
func GoodTimer(e *sim.Engine, tm *sim.Timer) {
	tm.Reset(e.Now() + 1)
}

// scheduleAt passes its parameter straight into the engine, which makes
// it a sink wrapper: callers handing it tainted values are flagged at
// their own call site.
func scheduleAt(e *sim.Engine, t float64, f func()) {
	e.At(t, f)
}

// BadThroughWrapper feeds taint to the sink through the wrapper.
func BadThroughWrapper(e *sim.Engine, f func()) {
	d := jitter.Scaled()
	scheduleAt(e, d, f) // want `value derived from time\.Now \(via jitter\.Raw → jitter\.Scaled\) flows into scheduleAt \(a sink wrapper\)`
}

// GoodThroughWrapper passes virtual time through the same wrapper.
func GoodThroughWrapper(e *sim.Engine, f func()) {
	scheduleAt(e, e.Now()+1, f)
}

// Sanctioned documents a provably harmless flow with the escape hatch.
func Sanctioned(e *sim.Engine, f func()) {
	t := jitter.Scaled()
	e.At(t, f) //e3:detflow fixture: exercises the suppression path
}
