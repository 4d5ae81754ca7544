package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// scheduler is the surface the timer property script drives: Engine with
// real timers, or ReferenceEngine emulating them the way callers did
// before timers existed.
type scheduler interface {
	now() Time
	at(t Time, fn func())
	newTimer(fn func()) timerHandle
}

type timerHandle interface {
	reset(at Time)
	stop()
}

type fastSched struct{ e *Engine }

func (s fastSched) now() Time                      { return s.e.Now() }
func (s fastSched) at(t Time, fn func())           { s.e.At(t, fn) }
func (s fastSched) newTimer(fn func()) timerHandle { return s.e.NewTimer(fn) }

func (t *Timer) reset(at Time) { t.Reset(at) }
func (t *Timer) stop()         { t.Stop() }

// refSched emulates a timer on the reference engine with a generation
// check: every reset schedules a fresh closure and bumps the generation,
// so superseded closures still pop from the heap but run as no-ops.
type refSched struct{ e *ReferenceEngine }

type refTimer struct {
	e   *ReferenceEngine
	fn  func()
	gen int
}

func (s refSched) now() Time                      { return s.e.Now() }
func (s refSched) at(t Time, fn func())           { s.e.At(t, fn) }
func (s refSched) newTimer(fn func()) timerHandle { return &refTimer{e: s.e, fn: fn} }

func (t *refTimer) reset(at Time) {
	t.gen++
	gen := t.gen
	t.e.At(at, func() {
		if gen == t.gen {
			t.fn()
		}
	})
}

func (t *refTimer) stop() { t.gen++ }

// refRun is Engine.Run's contract on the reference engine.
func refRun(e *ReferenceEngine, until Time) {
	for len(e.events) > 0 && e.events[0].at <= until {
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
}

// firing is one live callback execution: which callback, and when.
type firing struct {
	id int
	at Time
}

// timerScript builds one seeded random schedule on s: plain events and
// timers whose callbacks schedule more events, reset timers earlier,
// later or to the current instant, stop them, and re-arm themselves. It
// logs every live callback. Times sit on a 1/8 s grid so exact ties
// between events and timers are common. With sentinel set, one more timer
// stays pending until t=1000.
func timerScript(seed int64, s scheduler, log *[]firing, sentinel bool) {
	rng := rand.New(rand.NewSource(seed))
	budget := 300 + rng.Intn(300)
	const nTimers = 4
	timers := make([]timerHandle, nTimers)
	nextID := nTimers + 1
	delta := func() Time { return Time(rng.Intn(6)) / 8 }
	var act func(self int)
	act = func(self int) {
		for k := rng.Intn(4); k > 0 && budget > 0; k-- {
			budget--
			switch op := rng.Intn(5); {
			case op <= 1:
				id := nextID
				nextID++
				s.at(s.now()+delta(), func() {
					*log = append(*log, firing{id, s.now()})
					act(-1)
				})
			case op == 2:
				timers[rng.Intn(nTimers)].reset(s.now() + delta())
			case op == 3:
				timers[rng.Intn(nTimers)].stop()
			case self >= 0:
				timers[self].reset(s.now() + delta())
			}
		}
	}
	for i := range timers {
		i := i
		timers[i] = s.newTimer(func() {
			*log = append(*log, firing{-i - 1, s.now()})
			act(i)
		})
	}
	if sentinel {
		s.newTimer(func() { *log = append(*log, firing{0, s.now()}) }).reset(1000)
	}
	for i := 0; i < 8; i++ {
		timers[rng.Intn(nTimers)].reset(Time(rng.Intn(16)) / 8)
		id := nextID
		nextID++
		s.at(Time(rng.Intn(16))/8, func() {
			*log = append(*log, firing{id, s.now()})
			act(-1)
		})
	}
}

func sameFirings(t *testing.T, what string, got, want []firing) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d live callbacks, reference ran %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: callback %d is %+v, reference ran %+v", what, i, got[i], want[i])
		}
	}
}

// TestTimerMatchesGenerationCheckedAt: over 20 seeds of mixed At, Reset
// and Stop traffic, Engine's timers run the same live callbacks, in the
// same order, at the same times, as generation-checked At closures on the
// reference engine — run to drain, chained through Run(until) windows,
// and cut short by an event limit while a timer is pending.
func TestTimerMatchesGenerationCheckedAt(t *testing.T) {
	// lateCancels counts seeds whose run ends on a cancelled schedule, so
	// the drained-clock check is known to bite.
	lateCancels := 0
	for seed := int64(1); seed <= 20; seed++ {
		var want []firing
		ref := NewReferenceEngine()
		timerScript(seed, refSched{ref}, &want, false)
		ref.RunAll()

		var got []firing
		e := NewEngine()
		timerScript(seed, fastSched{e}, &got, false)
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("seed %d RunAll", seed)
		sameFirings(t, what, got, want)
		// The reference clock ends at its last popped closure, dead or
		// live; Engine's must end there too.
		if e.Now() != ref.Now() {
			t.Fatalf("%s: drained clock %v, reference %v", what, e.Now(), ref.Now())
		}
		if ref.Now() != want[len(want)-1].at {
			lateCancels++
		}
		if e.Processed() != uint64(len(got)) {
			t.Fatalf("%s: Processed %d, want %d live callbacks", what, e.Processed(), len(got))
		}

		// Chained Run(until) windows, off the 1/8 s grid and on it.
		var wantChain, gotChain []firing
		ref = NewReferenceEngine()
		timerScript(seed, refSched{ref}, &wantChain, false)
		e = NewEngine()
		timerScript(seed, fastSched{e}, &gotChain, false)
		for until := 0.3; until < 12; until += 0.375 {
			refRun(ref, until)
			if err := e.Run(until); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("seed %d Run(%v)", seed, until)
			sameFirings(t, what, gotChain, wantChain)
			if e.Now() != ref.Now() {
				t.Fatalf("%s: clock %v, reference %v", what, e.Now(), ref.Now())
			}
		}

		// An event-limit abort halfway through, with the sentinel timer
		// pending.
		var cut []firing
		e = NewEngine()
		timerScript(seed, fastSched{e}, &cut, true)
		limit := len(want) / 2
		e.SetEventLimit(uint64(limit))
		err := e.RunAll()
		if err == nil {
			t.Fatalf("seed %d: no event-limit abort at %d of %d callbacks", seed, limit, len(want))
		}
		sameFirings(t, fmt.Sprintf("seed %d limit %d", seed, limit), cut, want[:limit])
		if len(e.timers) == 0 {
			t.Fatalf("seed %d: no timer pending at the abort", seed)
		}
		if pending := fmt.Sprintf("%d event(s) still pending", e.queued()+len(e.timers)); !strings.Contains(err.Error(), pending) {
			t.Fatalf("seed %d: abort %q does not count pending timers (want %q)", seed, err, pending)
		}
	}
	if lateCancels == 0 {
		t.Fatal("no seed ends on a cancelled schedule; the drained-clock check is vacuous")
	}
}

// TestTimerOrdersAsAtAtTheSameCallPoint pins the tie-break: a timer reset
// between two At calls at the same instant runs between them, and a
// re-arm takes a fresh sequence number, so it runs after an event
// scheduled at that instant before the re-arm.
func TestTimerOrdersAsAtAtTheSameCallPoint(t *testing.T) {
	e := NewEngine()
	var got []string
	tm := e.NewTimer(func() { got = append(got, "timer") })
	e.At(1, func() { got = append(got, "a") })
	tm.Reset(1)
	e.At(1, func() { got = append(got, "b") })
	tm.Reset(1) // re-armed at the same time: now after "b"
	e.At(1, func() { got = append(got, "c") })
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if want := "a b timer c"; strings.Join(got, " ") != want {
		t.Fatalf("order %q, want %q", strings.Join(got, " "), want)
	}
	if e.Processed() != 4 {
		t.Fatalf("Processed = %d, want 4: a superseded schedule is not an event", e.Processed())
	}
}

// TestDrainedClockCoversCancelledSchedules: a drained engine's clock
// stands at the latest cancelled timer schedule, where it stood when such
// schedules stayed in the heap as no-ops; Run(until) leaves one beyond
// until for a later drain.
func TestDrainedClockCoversCancelledSchedules(t *testing.T) {
	e := NewEngine()
	stopped := e.NewTimer(func() {})
	stopped.Reset(5)
	stopped.Stop()
	moved := e.NewTimer(func() {})
	moved.Reset(4)
	moved.Reset(2) // supersedes the schedule at 4
	e.At(1, func() {})
	if err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 3 {
		t.Fatalf("Run(3) left the clock at %v, want 3", e.Now())
	}
	if e.Step() || e.Now() != 5 {
		t.Fatalf("drained Step left the clock at %v, want 5", e.Now())
	}
	if e.Processed() != 2 {
		t.Fatalf("Processed = %d, want 2 (cancelled schedules are not events)", e.Processed())
	}
	e2 := NewEngine()
	tm := e2.NewTimer(func() {})
	tm.Reset(7)
	tm.Reset(1)
	if err := e2.RunAll(); err != nil {
		t.Fatal(err)
	}
	if e2.Now() != 7 {
		t.Fatalf("RunAll left the clock at %v, want 7", e2.Now())
	}
}

// TestTimerStopAndWhen covers the idle, pending, fired and stopped
// states, and that a cancelled schedule never runs.
func TestTimerStopAndWhen(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.NewTimer(func() { fired++ })
	tm.Stop() // idle: no-op
	if _, ok := tm.When(); ok {
		t.Fatal("new timer reports a pending schedule")
	}
	tm.Reset(2)
	if at, ok := tm.When(); !ok || at != 2 {
		t.Fatalf("When = %v, %v; want 2, true", at, ok)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 pending timer", e.Pending())
	}
	tm.Stop()
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 0 || e.Processed() != 0 {
		t.Fatalf("stopped timer fired %d time(s), Processed %d", fired, e.Processed())
	}
	tm.Reset(3)
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if _, ok := tm.When(); ok || fired != 1 || e.Now() != 3 {
		t.Fatalf("after firing: pending %v, fired %d, now %v", ok, fired, e.Now())
	}
}

// TestTimerResetRejectsBadTimes: Reset panics where At does.
func TestTimerResetRejectsBadTimes(t *testing.T) {
	for _, at := range []Time{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reset(%v) did not panic", at)
				}
			}()
			NewEngine().NewTimer(func() {}).Reset(at)
		}()
	}
}

// TestEngineReleasesIdleTimers: the engine drops its reference to a timer
// that fired or stopped, so timers of discarded batchers (one per replan
// window) are not kept alive through the pending list's backing array.
func TestEngineReleasesIdleTimers(t *testing.T) {
	e := NewEngine()
	var timers []*Timer
	for i := 0; i < 8; i++ {
		tm := e.NewTimer(func() {})
		tm.Reset(float64(i))
		timers = append(timers, tm)
	}
	timers[3].Stop()
	timers[6].Reset(0.5)
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, tm := range e.timers[:cap(e.timers)] {
		if tm != nil {
			t.Fatalf("pending-list slot %d still holds a timer after the engine drained", i)
		}
	}
	if e.first != nil {
		t.Fatal("engine still points at an earliest timer after draining")
	}
}
