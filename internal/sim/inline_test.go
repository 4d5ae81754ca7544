package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// walker walks a sorted stream of arrival times with one timer, as
// serving.FeedStream and the fleet's shard tenants do. With inline set it
// runs each next arrival through Engine.Inline when it may; otherwise it
// re-arms its timer for every arrival.
type walker struct {
	e      *Engine
	id     int
	at     []Time
	next   int
	tm     *Timer
	inline bool
	visit  func(id int)
	// inlined counts arrivals run inline; ties counts arrivals due
	// exactly when another pending event was, which must re-arm.
	inlined, ties int
}

func newWalker(e *Engine, id int, inline bool, visit func(int)) *walker {
	w := &walker{e: e, id: id, inline: inline, visit: visit}
	w.tm = e.NewTimer(w.fire)
	return w
}

// inject hands the walker its next stretch of arrivals, as the fleet's
// coordinator does at an epoch barrier.
func (w *walker) inject(at []Time) {
	w.at, w.next = at, 0
	if len(at) > 0 {
		w.tm.Reset(at[0])
	}
}

func (w *walker) fire() {
	for {
		w.visit(w.id)
		w.next++
		if w.next == len(w.at) {
			return
		}
		t := w.at[w.next]
		if next, ok := w.e.nextAt(); ok && next == t {
			w.ties++
		}
		if !w.inline || !w.e.Inline(t) {
			w.tm.Reset(t)
			return
		}
		w.inlined++
	}
}

// streamScript builds one seeded run on e: two walkers over arrival
// streams on a 1/8 s grid (so arrivals often fall due exactly with other
// events), whose arrivals and events schedule more events, reset and stop
// a third timer, and log every live callback. epochs > 0 splits the
// streams into that many stretches injected at barriers one second apart
// (fleet-style); otherwise each walker gets its whole stream up front.
// It returns the function that injects epoch k's stretches.
func streamScript(seed int64, e *Engine, inline bool, epochs int, log *[]firing) (walkers []*walker, inject func(k int)) {
	rng := rand.New(rand.NewSource(seed))
	budget := 400 + rng.Intn(200)
	delta := func() Time { return Time(rng.Intn(6)) / 8 }
	nextID := 10
	var other *Timer
	var act func()
	act = func() {
		for k := rng.Intn(3); k > 0 && budget > 0; k-- {
			budget--
			switch rng.Intn(4) {
			case 0, 1:
				id := nextID
				nextID++
				e.At(e.Now()+delta(), func() {
					*log = append(*log, firing{id, e.Now()})
					act()
				})
			case 2:
				other.Reset(e.Now() + delta())
			case 3:
				other.Stop()
			}
		}
	}
	other = e.NewTimer(func() {
		*log = append(*log, firing{-3, e.Now()})
		act()
	})
	visit := func(id int) {
		*log = append(*log, firing{-id, e.Now()})
		act()
	}
	streams := make([][]Time, 2)
	for s := range streams {
		t := Time(rng.Intn(4)) / 8
		for n := 150 + rng.Intn(150); n > 0; n-- {
			streams[s] = append(streams[s], t)
			// Runs of simultaneous arrivals, then gaps of up to 3/8 s.
			if rng.Intn(4) > 0 {
				t += Time(1+rng.Intn(3)) / 8
			}
		}
		walkers = append(walkers, newWalker(e, s+1, inline, visit))
	}
	for i := 0; i < 6; i++ {
		id := nextID
		nextID++
		e.At(Time(rng.Intn(32))/8, func() {
			*log = append(*log, firing{id, e.Now()})
			act()
		})
	}
	inject = func(k int) {
		for s, w := range walkers {
			var stretch []Time
			for _, t := range streams[s] {
				if epochs == 0 || (t >= Time(k) && t < Time(k+1)) || (k == epochs-1 && t >= Time(k+1)) {
					stretch = append(stretch, t)
				}
			}
			w.inject(stretch)
		}
	}
	return walkers, inject
}

// engineState is what a caller can observe of an engine after a run,
// plus the sequence number the next schedule would take.
type engineState struct {
	now       Time
	processed uint64
	pending   int
	seq       uint64
	err       string
}

func stateOf(e *Engine, err error) engineState {
	s := engineState{now: e.Now(), processed: e.Processed(), pending: e.Pending(), seq: e.seq}
	if err != nil {
		s.err = err.Error()
	}
	return s
}

// TestInlineArrivalsMatchRearm: over 30 seeds, walkers that run
// uncontested arrivals inline execute the same live callbacks, in the
// same order, at the same times, with the same clock, Processed and
// Pending, as walkers that re-arm their timer for every arrival — run to
// drain, cut short by an event limit (same abort message), and driven
// through fleet-style Run(until) epochs that inject each stretch of
// arrivals at a barrier. Arrivals due exactly with a pending event occur
// on every seed and must run after it.
func TestInlineArrivalsMatchRearm(t *testing.T) {
	var inlined, ties int
	for seed := int64(1); seed <= 30; seed++ {
		run := func(inline bool, limit uint64) ([]firing, engineState, []*walker) {
			var log []firing
			e := NewEngine()
			e.SetEventLimit(limit)
			walkers, inject := streamScript(seed, e, inline, 0, &log)
			inject(0)
			err := e.RunAll()
			return log, stateOf(e, err), walkers
		}
		want, wantState, _ := run(false, 0)
		got, gotState, walkers := run(true, 0)
		what := fmt.Sprintf("seed %d RunAll", seed)
		sameFirings(t, what, got, want)
		if gotState != wantState {
			t.Fatalf("%s: inline ends %+v, re-arm %+v", what, gotState, wantState)
		}
		for _, w := range walkers {
			inlined += w.inlined
			ties += w.ties
		}

		// An event-limit abort partway through, with arrivals left.
		for _, limit := range []uint64{wantState.processed / 3, wantState.processed / 2} {
			want, wantState, _ := run(false, limit)
			got, gotState, _ := run(true, limit)
			what := fmt.Sprintf("seed %d limit %d", seed, limit)
			if wantState.err == "" {
				t.Fatalf("%s: no event-limit abort", what)
			}
			sameFirings(t, what, got, want)
			if gotState != wantState {
				t.Fatalf("%s: inline ends %+v, re-arm %+v", what, gotState, wantState)
			}
		}

		// Fleet-style epochs: each stretch injected at its barrier, the
		// engine run up to the next one in windows that end inside the
		// stretch, off the 1/8 s grid and on it (so arrivals fall due
		// exactly at a window's end), then drained.
		epochs := func(inline bool) ([]firing, []engineState) {
			var log []firing
			var states []engineState
			e := NewEngine()
			_, inject := streamScript(seed, e, inline, 4, &log)
			for k := 0; k < 4; k++ {
				inject(k)
				for _, until := range []Time{0.3, 0.625, 1} {
					err := e.Run(Time(k) + until)
					states = append(states, stateOf(e, err))
				}
			}
			err := e.RunAll()
			return log, append(states, stateOf(e, err))
		}
		wantLog, wantStates := epochs(false)
		gotLog, gotStates := epochs(true)
		sameFirings(t, fmt.Sprintf("seed %d epochs", seed), gotLog, wantLog)
		for k := range wantStates {
			if gotStates[k] != wantStates[k] {
				t.Fatalf("seed %d window %d: inline ends %+v, re-arm %+v", seed, k, gotStates[k], wantStates[k])
			}
		}
	}
	if inlined == 0 || ties == 0 {
		t.Fatalf("%d arrivals inlined, %d tied with a pending event: the script misses a path", inlined, ties)
	}
}

// TestInlineRefusals pins each case in which Inline must leave the
// engine alone: outside Run, past Run's until, at the event limit, and
// when a pending event or timer is due at or before t.
func TestInlineRefusals(t *testing.T) {
	e := NewEngine()
	if e.Inline(1) {
		t.Fatal("Inline ran outside Run")
	}
	check := func(what string, want bool, t0 Time, setup func(e *Engine)) {
		t.Helper()
		e := NewEngine()
		setup(e)
		var got bool
		tm := e.NewTimer(func() { got = e.Inline(t0) })
		tm.Reset(1)
		if err := e.Run(4); err != nil && want {
			t.Fatalf("%s: %v", what, err)
		}
		if got != want {
			t.Fatalf("%s: Inline(%v) = %v, want %v", what, t0, got, want)
		}
		if got && e.Processed() < 2 {
			t.Fatalf("%s: Processed = %d after an inlined event", what, e.Processed())
		}
	}
	check("uncontested", true, 2, func(e *Engine) {})
	check("past until", false, 5, func(e *Engine) {})
	check("tie with event", false, 2, func(e *Engine) { e.At(2, func() {}) })
	check("event before", false, 3, func(e *Engine) { e.At(2, func() {}) })
	check("event after", true, 2, func(e *Engine) { e.At(3, func() {}) })
	check("tie with timer", false, 2, func(e *Engine) { e.NewTimer(func() {}).Reset(2) })
	check("at limit", false, 2, func(e *Engine) { e.SetEventLimit(1) })
	check("under limit", true, 2, func(e *Engine) { e.SetEventLimit(2) })
}
