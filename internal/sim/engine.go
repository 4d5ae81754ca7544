// Package sim provides a deterministic discrete-event simulation engine.
//
// All E3 experiments run on virtual time: an event queue ordered by
// timestamp (ties broken by insertion sequence, so runs are fully
// deterministic). Virtual time is expressed in seconds as float64, which
// keeps latency/throughput math simple and avoids time.Duration overflow
// for long simulated horizons.
//
// The queue is a sorted array of inline event values with a gap at its
// front: a pop takes the head and widens the gap, and a push
// binary-searches its slot and shifts whichever side of it is shorter,
// into the gap or toward the tail. The serving stacks keep a couple of
// dozen events pending, so a push moves a handful of values and a pop
// moves none. Past sortedMax pending events the shifts would cost more
// than a heap's sifts, so the same array becomes a binary min-heap (a
// sorted array already is one) until it drains to sortedMin and is
// sorted again. The backing array is reused, so steady-state scheduling
// performs no allocation at all (the paper-scale traces push tens of
// millions of events through this structure; see README "Data-plane
// performance"). Pop order depends only on the (at, seq) total order,
// so it is bit-identical to the retained container/heap reference
// implementation (ReferenceEngine), which the soak and equivalence tests
// enforce.
//
// Work that is rescheduled again and again — a flush deadline that moves
// with the queue head, an arrival stream that always has one next arrival
// — runs on a Timer instead: one reusable, cancellable schedule per
// callback, kept beside the queue, so a superseded deadline is overwritten
// rather than left in the queue to fire as a no-op. A timer's callback
// that walks a stream may run the stream's next item in the same step
// (Engine.Inline) when nothing else is due first, instead of re-arming.
package sim

import (
	"fmt"
	"math"
	"slices"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation.
type Time = float64

// event is a scheduled callback: fn runs when the engine's clock reaches
// at. Events run in (at, seq) order. Exactness is the point: two events
// are simultaneous only when their timestamps are bit-identical. An
// epsilon would merge close-but-distinct times and reorder causally
// dependent events.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// less orders events by timestamp, insertion sequence breaking ties.
func (e *event) less(o *event) bool {
	if e.at != o.at { //e3:exactfloat queue tie-break needs bitwise equality
		return e.at < o.at
	}
	return e.seq < o.seq
}

// compareEvents is less as a three-way comparison, for sorting a heap.
func compareEvents(a, b event) int {
	if a.less(&b) {
		return -1
	}
	return 1
}

const (
	// sortedMax is the pending-event count at which the sorted queue
	// becomes a heap, and sortedMin the count at which a heap that pops
	// down to it is sorted back: the gap between them keeps a queue that
	// hovers near one bound from switching on every push and pop.
	sortedMax = 256
	sortedMin = 64
)

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside event callbacks on the caller's
// goroutine.
type Engine struct {
	now Time
	seq uint64
	// events[head:] holds the pending events sorted by (at, seq);
	// events[:head] is the gap pops leave at the front, which pushes into
	// the front half take back. Every slot outside events[head:] is zero.
	// While heaped, head is 0 and events is a binary min-heap instead.
	events []event
	head   int
	heaped bool
	// timers holds the pending timers in no order, each at its slot index;
	// first is the earliest of them by (at, seq), nil when none is pending.
	// A timer leaves the list when it fires or stops, so the engine keeps
	// no reference to a timer with nothing scheduled.
	timers []*Timer
	first  *Timer
	// drainAt is the latest time a timer schedule was superseded or
	// stopped at. A drained engine's clock stands at least there (see
	// Step), so cancelling a schedule never moves the end of a run.
	drainAt Time
	// Processed counts events executed, for diagnostics and runaway guards.
	processed uint64
	// limit aborts Run after this many events (0 = no limit). It exists to
	// turn infinite-loop bugs into errors instead of hangs.
	limit uint64
	// horizon is the until of the Run stepping the engine (+Inf for
	// RunAll, -Inf outside both). Inline runs nothing past it.
	horizon Time
}

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine {
	return &Engine{horizon: math.Inf(-1)}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have executed so far: every At/After
// callback and every timer firing. A timer schedule that Reset superseded
// or Stop cancelled never runs and is not counted.
func (e *Engine) Processed() uint64 { return e.processed }

// SetEventLimit aborts Run with an error after n events (0 disables the
// guard).
func (e *Engine) SetEventLimit(n uint64) { e.limit = n }

// EventLimit reports the configured event limit (0 = no limit), so
// drivers can install a default runaway guard without clobbering a
// caller's stricter one.
func (e *Engine) EventLimit() uint64 { return e.limit }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t < Now) panics: it is always a model bug and silently clamping it would
// corrupt causality.
//
//e3:hotpath every scheduled event passes through here; steady-state must not allocate
func (e *Engine) At(t Time, fn func()) {
	e.checkTime(t)
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn})
}

// checkTime rejects a schedule time in the past or not finite. The test
// is kept small enough to inline into At and Reset: !(t >= now) also
// catches NaN, and -Inf is always in the past. The panics live in badTime.
func (e *Engine) checkTime(t Time) {
	if !(t >= e.now) || t > math.MaxFloat64 {
		e.badTime(t)
	}
}

// badTime panics with the reason checkTime rejected t.
func (e *Engine) badTime(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	panic(fmt.Sprintf("sim: schedule at non-finite time %v", t))
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (e *Engine) After(d float64, fn func()) {
	e.At(e.now+d, fn)
}

// Pending reports the number of events waiting to run, pending timers
// included.
func (e *Engine) Pending() int { return e.queued() + len(e.timers) }

// queued reports the number of events in the queue, timers aside.
func (e *Engine) queued() int { return len(e.events) - e.head }

// Timer is a reusable, cancellable schedule for one fixed callback. At
// most one firing is pending at a time: Reset moves it, Stop cancels it,
// and a superseded or cancelled schedule never runs. A timer orders
// against ordinary events exactly as the At call it stands for would,
// because Reset takes the engine's next sequence number just as At does.
// A cancelled schedule is not an event, but it still bounds where the
// clock of a drained engine stands (see Step).
//
// Like the engine, a timer belongs to the engine's goroutine.
type Timer struct {
	eng *Engine
	fn  func()
	at  Time
	seq uint64
	// slot is the timer's index in the engine's pending list, -1 when it
	// is not pending.
	slot int
}

// NewTimer returns an idle timer that runs fn each time it fires. The
// engine keeps no reference to it until Reset schedules it.
func (e *Engine) NewTimer(fn func()) *Timer {
	return &Timer{eng: e, fn: fn, slot: -1}
}

// Reset schedules the timer to fire at absolute virtual time at,
// replacing any pending schedule. Like At, it panics on a time before now
// or not finite. Calling Reset from the timer's own callback re-arms it.
//
//e3:hotpath re-armed on every batcher dispatch and every streamed arrival
func (t *Timer) Reset(at Time) {
	e := t.eng
	e.checkTime(at)
	if t.slot >= 0 {
		e.cancelled(t.at)
	} else {
		t.slot = len(e.timers)
		e.timers = append(e.timers, t)
	}
	e.seq++
	t.at, t.seq = at, e.seq
	switch {
	case e.first == nil || t.before(e.first.at, e.first.seq):
		e.first = t
	case e.first == t:
		// The earliest timer moved later; another may now lead.
		e.first = e.earliestTimer()
	}
}

// Stop cancels the pending schedule, if any.
//
//e3:hotpath cancelled on every batcher dispatch
func (t *Timer) Stop() {
	if t.slot >= 0 {
		t.eng.cancelled(t.at)
		t.eng.unlink(t)
	}
}

// cancelled records a schedule that will not run.
func (e *Engine) cancelled(at Time) {
	if at > e.drainAt {
		e.drainAt = at
	}
}

// When reports the pending fire time; ok is false when nothing is
// scheduled.
func (t *Timer) When() (at Time, ok bool) {
	return t.at, t.slot >= 0
}

// before orders the timer's schedule against another (at, seq) pair, with
// the queue's exact tie-break.
func (t *Timer) before(at Time, seq uint64) bool {
	if t.at != at { //e3:exactfloat queue tie-break needs bitwise equality
		return t.at < at
	}
	return t.seq < seq
}

// unlink removes a pending timer from the pending list.
func (e *Engine) unlink(t *Timer) {
	last := len(e.timers) - 1
	moved := e.timers[last]
	e.timers[t.slot] = moved
	moved.slot = t.slot
	e.timers[last] = nil
	e.timers = e.timers[:last]
	t.slot = -1
	if e.first == t {
		e.first = e.earliestTimer()
	}
}

// earliestTimer scans the pending list for its earliest timer. The list
// holds one timer per live stream or batcher, so the scan is short.
func (e *Engine) earliestTimer() *Timer {
	var first *Timer
	for _, t := range e.timers {
		if first == nil || t.before(first.at, first.seq) {
			first = t
		}
	}
	return first
}

// nextAt reports the time of the earliest pending event or timer.
func (e *Engine) nextAt() (Time, bool) {
	h := e.head
	if t := e.first; t != nil && (h == len(e.events) || t.before(e.events[h].at, e.events[h].seq)) {
		return t.at, true
	}
	if h == len(e.events) {
		return 0, false
	}
	return e.events[h].at, true
}

// push inserts ev, whose seq is the largest yet, into the queue: after
// every event at or before its time, so the search compares times alone.
// It shifts the shorter side of its slot by one, the front into the gap
// if there is one, otherwise the back toward the tail. A full array whose
// gap is at least half its live length is compacted to the front instead
// of grown. A queue of sortedMax events pushes onto a heap instead.
//
//e3:hotpath every scheduled event passes through here; steady-state must not allocate
func (e *Engine) push(ev event) {
	if e.heaped || len(e.events)-e.head == sortedMax {
		e.pushHeap(ev)
		return
	}
	q, h := e.events, e.head
	// i is the first live slot whose event runs after ev.
	i, j := h, len(q)
	for i < j {
		m := int(uint(i+j) >> 1)
		if ev.at < q[m].at {
			j = m
		} else {
			i = m + 1
		}
	}
	if h > 0 && i-h <= len(q)-i {
		copy(q[h-1:], q[h:i])
		q[i-1] = ev
		e.head = h - 1
		return
	}
	if len(q) == cap(q) && 2*h >= len(q)-h && h > 0 {
		n := copy(q, q[h:])
		clear(q[n:])
		q, i, e.head = q[:n], i-h, 0
	}
	q = append(q, ev)
	if i < len(q)-1 {
		copy(q[i+1:], q[i:])
		q[i] = ev
	}
	e.events = q
}

// pushHeap pushes ev onto the heap, first turning the sorted queue into
// one if it is not heaped yet: moved to the front of the array, sorted
// values already satisfy the heap invariant.
func (e *Engine) pushHeap(ev event) {
	if !e.heaped {
		n := copy(e.events, e.events[e.head:])
		clear(e.events[n:])
		e.events, e.head, e.heaped = e.events[:n], 0, true
	}
	e.events = append(e.events, ev)
	e.siftUp(len(e.events) - 1)
}

// popHeap removes the heap's root, which Step has taken, and sorts the
// heap back into a queue once it is down to sortedMin events.
func (e *Engine) popHeap() {
	n := len(e.events) - 1
	e.events[0] = e.events[n]
	// Zero the vacated tail slot so the callback (and anything it
	// captures) does not linger in the backing array past execution.
	e.events[n] = event{}
	e.events = e.events[:n]
	e.siftDown()
	if n == sortedMin {
		slices.SortFunc(e.events, compareEvents)
		e.heaped = false
	}
}

// siftUp restores the heap invariant after appending at index i.
func (e *Engine) siftUp(i int) {
	h := e.events
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores the heap invariant after replacing the root.
func (e *Engine) siftDown() {
	h := e.events
	n := len(h)
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h[right].less(&h[left]) {
			least = right
		}
		if !h[least].less(&h[i]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Step executes the single earliest pending event or timer, advancing the
// clock to its timestamp. It reports whether anything ran.
//
// When nothing is pending, Step moves the clock up to the latest
// cancelled timer schedule if that lies ahead. A drained run thus ends
// where it would if each cancelled schedule had stayed in the queue as a
// no-op event — the equivalence the timer property test checks — and
// replan windows start, and goodput horizons close, at that clock.
//
//e3:hotpath pop path runs once per simulated event; see README "Data-plane performance"
func (e *Engine) Step() bool {
	h := e.head
	if t := e.first; t != nil && (h == len(e.events) || t.before(e.events[h].at, e.events[h].seq)) {
		e.unlink(t)
		e.now = t.at
		e.processed++
		t.fn()
		return true
	}
	if h == len(e.events) {
		e.drained()
		return false
	}
	head := &e.events[h]
	at, fn := head.at, head.fn
	switch {
	case e.heaped:
		e.popHeap()
	case h+1 == len(e.events):
		// Zero the vacated slot so the callback (and anything it
		// captures) does not linger in the backing array past execution.
		*head = event{}
		e.events, e.head = e.events[:0], 0
	default:
		*head = event{}
		e.head = h + 1
	}
	e.now = at
	e.processed++
	fn()
	return true
}

// Inline lets a timer's callback run the next item of the stream it
// walks, due at t, inside the current step instead of re-arming for it:
// it reports whether Run or RunAll is stepping and t lies within that
// call's until, the event limit has not been reached and nothing pending
// is due at or before t. If so, the clock moves to t, and the item takes
// the next sequence number and counts as one processed event, exactly
// as the timer firing it replaces would; otherwise nothing changes and
// the caller re-arms its timer. A tie goes to the pending event, since a
// re-armed timer would take the largest sequence number. Like Reset, it
// panics on a time before now or not finite.
//
//e3:hotpath asked once per streamed arrival
func (e *Engine) Inline(t Time) bool {
	e.checkTime(t)
	if t > e.horizon || (e.limit > 0 && e.processed >= e.limit) {
		return false
	}
	if h := e.head; h < len(e.events) && t >= e.events[h].at {
		return false
	}
	if f := e.first; f != nil && t >= f.at {
		return false
	}
	e.seq++
	e.now = t
	e.processed++
	return true
}

// drained settles the clock of an engine with nothing pending.
func (e *Engine) drained() {
	if e.drainAt > e.now {
		e.now = e.drainAt
	}
}

// limitErr reports an event-limit abort unambiguously: callers chaining
// Run windows must be able to tell a limit abort (work still pending)
// from a drained queue.
func (e *Engine) limitErr() error {
	return fmt.Errorf("sim: event limit %d exceeded at t=%v with %d event(s) still pending",
		e.limit, e.now, e.Pending())
}

// Run executes events until the queue drains or the next event lies beyond
// until; the clock is left at the time of the last executed event (or at
// until, whichever is later, so callers can chain Run calls on a shared
// timeline). It returns an error only if the event limit is exceeded.
func (e *Engine) Run(until Time) error {
	horizon := e.horizon
	e.horizon = until
	defer func() { e.horizon = horizon }()
	for {
		at, ok := e.nextAt()
		if !ok || at > until {
			break
		}
		if e.limit > 0 && e.processed >= e.limit {
			return e.limitErr()
		}
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
	return nil
}

// RunAll executes every pending event (including ones scheduled by other
// events) until the queue drains, leaving the clock as Step does when
// nothing is pending.
func (e *Engine) RunAll() error {
	horizon := e.horizon
	e.horizon = math.Inf(1)
	defer func() { e.horizon = horizon }()
	for e.head < len(e.events) || e.first != nil {
		if e.limit > 0 && e.processed >= e.limit {
			return e.limitErr()
		}
		e.Step()
	}
	e.drained()
	return nil
}
