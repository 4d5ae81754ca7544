package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestEngineMatchesReferenceOrder cross-validates the value-queue engine
// against the retained container/heap reference: for seeded random
// schedules (duplicate timestamps included, so tie-breaking is exercised)
// both engines must execute the exact same event sequence.
func TestEngineMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 500 + rng.Intn(1500)
		ats := make([]float64, n)
		for i := range ats {
			// Coarse quantization forces plenty of exact-tie timestamps.
			ats[i] = float64(rng.Intn(64)) / 8.0
		}
		fast := NewEngine()
		ref := NewReferenceEngine()
		var fastOrder, refOrder []int
		for i, at := range ats {
			i := i
			fast.At(at, func() { fastOrder = append(fastOrder, i) })
			ref.At(at, func() { refOrder = append(refOrder, i) })
		}
		if err := fast.RunAll(); err != nil {
			t.Fatal(err)
		}
		ref.RunAll()
		if len(fastOrder) != n || len(refOrder) != n {
			t.Fatalf("seed %d: ran %d/%d events, want %d", seed, len(fastOrder), len(refOrder), n)
		}
		for i := range fastOrder {
			if fastOrder[i] != refOrder[i] {
				t.Fatalf("seed %d: execution order diverges from reference at position %d: fast %d, ref %d",
					seed, i, fastOrder[i], refOrder[i])
			}
		}
	}
}

// TestEngineSoakMillionEvents pushes 1M events through the engine with
// nested rescheduling and duplicate timestamps, asserting global
// timestamp order, FIFO tie-breaking, and exact conservation (every
// scheduled event runs exactly once). This is the scale regime the
// data-plane fast path exists for; the test doubles as a guard that slot
// reuse in the value queue never loses or duplicates an event.
func TestEngineSoakMillionEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-event soak skipped in -short mode")
	}
	const total = 1_000_000
	e := NewEngine()
	rng := rand.New(rand.NewSource(7))
	scheduled := 0
	ran := 0
	lastAt := -1.0
	lastSeq := uint64(0)
	var schedule func()
	schedule = func() {
		// Each event reschedules a few more until the budget is spent,
		// mixing strictly-later times with exact ties.
		k := rng.Intn(3)
		for i := 0; i < k && scheduled < total; i++ {
			scheduled++
			var at float64
			if rng.Intn(4) == 0 {
				at = e.Now() // exact tie with the running event
			} else {
				at = e.Now() + float64(1+rng.Intn(100))/1000.0
			}
			seq := e.seq + 1 // next seq the engine will assign
			_ = seq
			e.At(at, func() {
				ran++
				if e.Now() < lastAt {
					t.Fatalf("clock went backwards: %v after %v", e.Now(), lastAt)
				}
				lastAt = e.Now()
				schedule()
			})
		}
	}
	// Seed the loop with enough initial events to keep the heap deep.
	for scheduled < 10_000 {
		scheduled++
		at := float64(rng.Intn(1000)) / 100.0
		e.At(at, func() {
			ran++
			if e.Now() < lastAt {
				t.Fatalf("clock went backwards: %v after %v", e.Now(), lastAt)
			}
			lastAt = e.Now()
			schedule()
		})
	}
	// Keep scheduling from a driver tick until the budget is reached.
	var tick func()
	tick = func() {
		schedule()
		if scheduled < total {
			e.After(0.001, tick)
		}
	}
	e.At(0, tick)
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if ran != scheduled {
		t.Fatalf("conservation: scheduled %d events, ran %d", scheduled, ran)
	}
	if scheduled < total {
		t.Fatalf("soak under-scheduled: %d < %d", scheduled, total)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending %d after RunAll", e.Pending())
	}
	_ = lastSeq
}

// TestEngineTieBreakFIFOUnderSlotReuse interleaves pushes and pops so
// popped slots are reused mid-stream, then asserts FIFO order among
// same-timestamp events — the determinism property the value queue must
// preserve bit-exactly.
func TestEngineTieBreakFIFOUnderSlotReuse(t *testing.T) {
	e := NewEngine()
	var got []int
	next := 0
	// Phase 1: fill and partially drain so the backing array has reused slots.
	for i := 0; i < 64; i++ {
		i := i
		e.At(1.0, func() { got = append(got, i) })
	}
	for i := 0; i < 32; i++ {
		e.Step()
	}
	// Phase 2: more ties at a later time, landing in reused slots.
	for i := 64; i < 128; i++ {
		i := i
		e.At(2.0, func() { got = append(got, i) })
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	for _, v := range got {
		if v != next {
			t.Fatalf("tie-break order %v, want strict FIFO", got)
		}
		next++
	}
	if next != 128 {
		t.Fatalf("ran %d events, want 128", next)
	}
}

// TestEngineLimitErrorReportsPending pins the event-limit abort message:
// it must carry the pending count — heap events and pending timers alike
// — so callers chaining Run windows can tell a limit abort from a drained
// queue. Reverting the error format, or counting the heap alone, fails
// this test.
func TestEngineLimitErrorReportsPending(t *testing.T) {
	e := NewEngine()
	e.SetEventLimit(3)
	for i := 0; i < 10; i++ {
		e.At(float64(i), func() {})
	}
	e.NewTimer(func() {}).Reset(100)
	err := e.RunAll()
	if err == nil {
		t.Fatal("expected event-limit error")
	}
	if want := "8 event(s) still pending"; !strings.Contains(err.Error(), want) {
		t.Fatalf("limit error %q does not report pending count (want substring %q)", err, want)
	}
	if e.Pending() != 8 {
		t.Fatalf("pending = %d after limit abort, want 8", e.Pending())
	}
}

// TestEngineEventLimitGetter pins the EventLimit accessor drivers use to
// avoid clobbering a caller's stricter runaway guard.
func TestEngineEventLimitGetter(t *testing.T) {
	e := NewEngine()
	if e.EventLimit() != 0 {
		t.Fatalf("fresh engine limit = %d, want 0", e.EventLimit())
	}
	e.SetEventLimit(42)
	if e.EventLimit() != 42 {
		t.Fatalf("limit = %d, want 42", e.EventLimit())
	}
}

// TestEngineStepClearsVacatedSlot guards the value queue's vacated-slot
// zeroing: after a pop, the vacated backing-array slot must not retain
// the executed callback (the same stale-tail class of bug as the batcher
// queue's).
func TestEngineStepClearsVacatedSlot(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 8; i++ {
		e.At(float64(i), func() {})
	}
	for e.Step() {
	}
	tail := e.events[:cap(e.events)]
	for i := range tail {
		if tail[i].fn != nil {
			t.Fatalf("backing-array slot %d retains an executed callback", i)
		}
	}
}

// TestQueueMatchesReference drives Engine and ReferenceEngine through the
// same seeded pushes and pops while the pending count climbs and falls
// through phases: a shallow sorted queue, past sortedMax into a heap
// 10,000 events deep, back under sortedMin into a sorted queue, and up
// again. Push times fall on a 1/16 s grid up to 4 s ahead, so pushes land
// in the middle of the queue and tie with pending events. Both engines
// must run the same events in the same order at the same times, and the
// queue must change form both ways.
func TestQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fast, ref := NewEngine(), NewReferenceEngine()
		var fastLog, refLog []firing
		id := 0
		push := func() {
			id++
			i, d := id, Time(rng.Intn(64))/16
			fast.At(fast.Now()+d, func() { fastLog = append(fastLog, firing{i, fast.Now()}) })
			ref.At(ref.Now()+d, func() { refLog = append(refLog, firing{i, ref.Now()}) })
		}
		heaps, sorts := 0, 0
		heaped := false
		for _, target := range []int{20, 200, 10_000, 150, 30, 250, 2_000, 0} {
			for fast.Pending() != target {
				// Mostly toward the target, with steps against it.
				if grow := fast.Pending() < target; grow == (rng.Intn(5) > 0) {
					push()
				} else {
					fast.Step()
					ref.Step()
				}
				if fast.heaped != heaped {
					heaped = fast.heaped
					if heaped {
						heaps++
					} else {
						sorts++
					}
				}
				if fast.Pending() != ref.Pending() {
					t.Fatalf("seed %d: %d pending, reference %d", seed, fast.Pending(), ref.Pending())
				}
			}
		}
		sameFirings(t, fmt.Sprintf("seed %d", seed), fastLog, refLog)
		if heaps < 2 || sorts < 2 {
			t.Fatalf("seed %d: queue heaped %d times and sorted back %d times; the phases miss a switch", seed, heaps, sorts)
		}
	}
}
