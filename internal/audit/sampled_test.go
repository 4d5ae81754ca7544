package audit

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"e3/internal/store"
)

// drive pushes n samples through a clean arrive→queue→dispatch→terminal
// lifecycle, dropping every 5th.
func drive(l *Ledger, n int64) {
	for id := int64(1); id <= n; id++ {
		at := float64(id)
		l.Arrived(id, at)
		l.Queued(id, at+0.001)
		if id%5 == 0 {
			l.Dropped(id, at+0.002, ReasonAdmission)
			continue
		}
		dispatched(l, id, at+0.002, 0, int(id%4))
		l.Completed(id, at+0.010, 3)
	}
}

func TestSampledLedgerTotalsExact(t *testing.T) {
	const n = 1000
	l := NewSampledLedger(100)
	drive(l, n)
	r := l.Verify()
	if !r.OK() {
		t.Fatalf("sampled verify failed: %v", r.Violations)
	}
	if r.Samples != n {
		t.Fatalf("Samples = %d, want population-exact %d", r.Samples, n)
	}
	if r.Completed != 800 || r.Dropped != 200 {
		t.Fatalf("totals completed=%d dropped=%d, want 800/200 exact despite sampling", r.Completed, r.Dropped)
	}
	if r.ByReason[ReasonAdmission] != 200 {
		t.Fatalf("ByReason[admission] = %d, want 200", r.ByReason[ReasonAdmission])
	}
	if r.Tracked != 10 {
		t.Fatalf("Tracked = %d, want 10 (every 100th of 1000)", r.Tracked)
	}
	if r.Stride != 100 {
		t.Fatalf("Stride = %d, want 100", r.Stride)
	}
	// CrossCheck against exact collector-side totals must hold in sampled
	// mode — that is the point of keeping O(1) population counters.
	r.CrossCheck(800, 200)
	if !r.OK() {
		t.Fatalf("cross-check failed in sampled mode: %v", r.Violations)
	}
	if !strings.Contains(r.String(), "sampled") {
		t.Fatalf("report does not mention sampling: %s", r.String())
	}
}

func TestSampledLedgerDetectsViolationsOnTrackedSamples(t *testing.T) {
	l := NewSampledLedger(10)
	drive(l, 99)
	// Sample 20 is tracked (20%10==0): give it a second terminal.
	l.Completed(20, 99.0, 1)
	r := l.Verify()
	if r.OK() {
		t.Fatal("double-terminated tracked sample not flagged in sampled mode")
	}
}

func TestSampledLedgerMemoryBoundedByStride(t *testing.T) {
	l := NewSampledLedger(1000)
	// Fleet builds one sampled ledger per (replica, tenant) stack: until
	// its first tracked id a ledger must allocate no detail storage. The
	// warm-up run interns the drop reason; every later run of untracked
	// ids only bumps counters.
	if allocs := testing.AllocsPerRun(5, func() { drive(l, 999) }); allocs != 0 {
		t.Fatalf("untracked ids allocated %v times per run, want 0", allocs)
	}
	if got := l.Samples(); got != 0 {
		t.Fatalf("untracked ids left %d samples in detail, want 0", got)
	}
	// Ten tracked ids take a few KB: the run store's and the index's first
	// pages start small.
	if got := allocBytes(func() { drive(l, 10_000) }); got > 4<<10 {
		t.Fatalf("tracking 10 ids allocated %d bytes, want ≤ 4 KB", got)
	}
	if got := l.Samples(); got != 10 {
		t.Fatalf("tracked %d samples in detail, want 10", got)
	}
	if r := l.Verify(); r.Tracked != 10 || !r.OK() {
		t.Fatalf("verify tracked %d samples (ok=%v), want 10: %v", r.Tracked, r.OK(), r.Violations)
	}
	for id := int64(1000); id <= 10_000; id += 1000 {
		if len(l.Events(id)) == 0 {
			t.Fatalf("tracked sample %d has no events", id)
		}
		if evs := l.Events(id + 1); evs != nil {
			t.Fatalf("untracked sample %d has events %v", id+1, evs)
		}
	}
}

// TestExhaustiveRecordAllocs holds the store's allocation profile: an
// index entry takes 8 bytes, and over 100k samples recording amortizes
// to at most 0.01 allocations per event (a map-of-slices store made
// ~0.7).
func TestExhaustiveRecordAllocs(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size != entryBytes {
		t.Fatalf("index entry is %d bytes, want 8", size)
	}
	const samples = 100_000
	events := 4*samples - samples/5 // drive drops every 5th sample before dispatch
	allocs := testing.AllocsPerRun(1, func() { drive(NewLedger(), samples) })
	if perEvent := allocs / float64(events); perEvent > 0.01 {
		t.Fatalf("exhaustive record: %.4f allocs/event over %d events, want ≤ 0.01", perEvent, events)
	}
}

// allocBytes returns the bytes allocated while f runs.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestExhaustiveRecordBytes bounds everything recording 100k exhaustive
// samples allocates at the packed layout's measured size: per sample an
// 8-byte index entry and its run, plus one partly filled page of the
// index and one of the run store, and the slots and ring positions of the
// samples in flight, which later samples reuse. drive's runs (4 events at
// distinct times, every fifth 3) measure 25.5 bytes; the replan mix's
// (5.8 events at 4.4 distinct times) 35.9. Nothing grows by copying, so
// nothing else is left over.
func TestExhaustiveRecordBytes(t *testing.T) {
	const samples = 100_000
	mix := replanMix(samples)
	for _, c := range []struct {
		name string
		// run is the bytes of a run, rounded up; inFlight is the bytes of
		// the slots and the ring.
		run      int
		inFlight int
		record   func(l *Ledger)
	}{
		{"drive", 26, 1 << 10, func(l *Ledger) { drive(l, samples) }},
		{"replan-mix", 36, 96 << 10, func(l *Ledger) { replay(l, mix) }},
	} {
		var l *Ledger
		got := allocBytes(func() {
			l = NewLedger()
			c.record(l)
		})
		if bound := uint64((c.run+entryBytes)*samples + entryBytes*store.PageLen + store.PageLen + c.inFlight); got > bound {
			t.Fatalf("%s: recording %d samples allocated %d bytes, want ≤ %d", c.name, samples, got, bound)
		}
		if l.Samples() != samples {
			t.Fatalf("%s: tracked %d samples, want %d", c.name, l.Samples(), samples)
		}
	}
}

// TestLedgerEventsRoundTrip checks Events reconstructs every field of a
// sample's lifecycle, including one of more than a page of events.
func TestLedgerEventsRoundTrip(t *testing.T) {
	l := NewLedger()
	l.Arrived(3, 0.5)
	want := []Event{{Kind: KindArrived, At: 0.5}}
	for i := 0; i < store.PageLen+10; i++ {
		at := 1 + float64(i)
		dispatched(l, 3, at, i%5, i%7)
		merged(l, 4, at, i%3) // interleaved with another sample
		want = append(want, Event{Kind: KindDispatched, At: at, Stage: i % 5, Instance: i % 7})
	}
	l.Completed(3, 1e6, 9)
	l.Dropped(4, 1e6, "custom")
	want = append(want, Event{Kind: KindCompleted, At: 1e6, ExitLayer: 9})
	got := l.Events(3)
	if len(got) != len(want) {
		t.Fatalf("Events(3) returned %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Events(3)[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	evs4 := l.Events(4)
	if last := evs4[len(evs4)-1]; last.Kind != KindDropped || last.Reason != "custom" {
		t.Fatalf("Events(4) ends with %+v, want a drop with reason custom", last)
	}
	// Operands at the edges of what a record packs, and past them: a
	// wide operand spills to the ledger, and every one round-trips.
	edges := []Event{
		{Kind: KindDispatched, Stage: 4095, Instance: 65535},
		{Kind: KindDispatched, Stage: 4096},
		{Kind: KindDispatched, Instance: 65536},
		{Kind: KindDispatched, Stage: -1},
		{Kind: KindDispatched, Instance: -1},
		{Kind: KindDispatched, Stage: math.MaxInt32, Instance: math.MinInt32},
		{Kind: KindMerged, Stage: 1<<28 - 1},
		{Kind: KindMerged, Stage: 1 << 28},
		{Kind: KindMerged, Stage: math.MinInt32},
		{Kind: KindCompleted, ExitLayer: 1<<28 - 1},
		{Kind: KindCompleted, ExitLayer: 1 << 28},
		{Kind: KindCompleted, ExitLayer: -1},
	}
	const wide = 9 // the edges that do not pack
	for i := range edges {
		e := &edges[i]
		e.At = float64(i)
		switch e.Kind {
		case KindDispatched:
			dispatched(l, 6, e.At, e.Stage, e.Instance)
		case KindMerged:
			merged(l, 6, e.At, e.Stage)
		case KindCompleted:
			l.Completed(6, e.At, e.ExitLayer)
		}
	}
	if got := l.Events(6); !slices.Equal(got, edges) {
		t.Fatalf("Events(6) = %+v, want %+v", got, edges)
	}
	if len(l.wide) != wide {
		t.Fatalf("%d operands spilled, want %d", len(l.wide), wide)
	}
	if l.Events(5) != nil {
		t.Fatal("Events of an unseen id is not nil")
	}
}

// TestRunLayoutRoundTrip checks Events returns exactly the recorded
// events, bit for bit, at the edges of the packed run layout: times of +0
// and −0, subnormal times, a jump from 0 to 1e300, one time across more
// than 7 and more than 31 events, ops just inside and just past a short op
// byte and ops that spill wide, runs that straddle a page boundary, an
// open sample at odd times, and events after a clean terminal, which
// decode the run back into a slot.
func TestRunLayoutRoundTrip(t *testing.T) {
	negZero, maxSub, minNormal := math.Copysign(0, -1), math.Float64frombits(1<<52-1), math.Float64frombits(1<<52)
	tied := func(n int, at float64) []Event {
		evs := []Event{{Kind: KindArrived, At: at}}
		for range n - 2 {
			evs = append(evs, Event{Kind: KindMerged, At: at})
		}
		return append(evs, Event{Kind: KindCompleted, At: at, ExitLayer: 1})
	}
	lives := [][]Event{
		{{Kind: KindArrived}, {Kind: KindQueued, At: negZero}, {Kind: KindDispatched, Instance: 1},
			{Kind: KindMerged, At: negZero, Stage: 1}, {Kind: KindCompleted, At: negZero, ExitLayer: 2}},
		{{Kind: KindArrived, At: 5e-324}, {Kind: KindQueued, At: 1e-310}, {Kind: KindDispatched, At: maxSub},
			{Kind: KindCompleted, At: minNormal, ExitLayer: 1}},
		{{Kind: KindArrived}, {Kind: KindQueued, At: 1e300}, {Kind: KindCompleted, At: 1e300, ExitLayer: 3}},
		tied(8, 2.5), tied(32, 3.5), tied(70, 4.5),
		{{Kind: KindArrived, At: 1}, {Kind: KindDispatched, At: 1, Stage: 3, Instance: 7},
			{Kind: KindDispatched, At: 2, Stage: 3, Instance: 8}, {Kind: KindDispatched, At: 3, Stage: 4, Instance: 7},
			{Kind: KindMerged, At: 4, Stage: 31}, {Kind: KindMerged, At: 5, Stage: 32},
			{Kind: KindDispatched, At: 6, Stage: 4095, Instance: 65535}, {Kind: KindDispatched, At: 7, Stage: 4096},
			{Kind: KindCompleted, At: 8, ExitLayer: 1<<28 - 1}},
		{{Kind: KindArrived, At: 1}, {Kind: KindCompleted, At: 2, ExitLayer: 31}},
		{{Kind: KindArrived, At: 1}, {Kind: KindCompleted, At: 2, ExitLayer: 32}},
		{{Kind: KindArrived, At: 1}, {Kind: KindCompleted, At: 2, ExitLayer: 1 << 28}},
	}
	// Lives of 2 to 12 events at times of every scale fill the store's
	// first pages and cross their boundaries at every part of a run.
	rng := rand.New(rand.NewSource(5))
	for i := range 600 {
		at := math.Ldexp(1+rng.Float64(), rng.Intn(80)-40)
		life := []Event{{Kind: KindArrived, At: at}}
		for j := range i % 11 {
			if rng.Intn(3) > 0 {
				at += math.Ldexp(rng.Float64(), rng.Intn(60)-50)
			}
			life = append(life, Event{Kind: KindMerged, At: at, Stage: j})
		}
		lives = append(lives, append(life, Event{Kind: KindCompleted, At: at + 1, ExitLayer: i % 40}))
	}
	l := NewLedger()
	model := make(map[int64][]Event)
	straddles := 0
	for i, life := range lives {
		id := int64(i + 1)
		start := l.end
		for _, e := range life {
			recordEvent(l, id, e)
		}
		model[id] = life
		first, _ := store.Locate(int(start))
		if last, _ := store.Locate(int(l.end) - 1); last != first {
			straddles++
		}
	}
	if straddles < 3 {
		t.Fatalf("%d runs straddle a page boundary, want at least 3", straddles)
	}
	if l.clean != len(lives) {
		t.Fatalf("%d of %d samples closed cleanly", l.clean, len(lives))
	}
	open := []Event{{Kind: KindArrived, At: negZero}, {Kind: KindQueued, At: 5e-324}, {Kind: KindDispatched, At: 1e300, Stage: 5, Instance: 9}}
	for _, e := range open {
		recordEvent(l, 0, e)
	}
	model[0] = open
	check := func() {
		t.Helper()
		for id, want := range model {
			if got := l.Events(id); !sameEvents(got, want) {
				t.Fatalf("Events(%d) = %+v, want %+v", id, got, want)
			}
		}
	}
	check()
	// Events after clean terminals, at odd times and with escaped and wide
	// ops, reopen the runs of the zeros, the jump and every sample whose
	// id is a multiple of 50.
	after := []Event{{Kind: KindMerged, At: negZero, Stage: 40}, {Kind: KindDispatched, At: 1e300, Stage: 4096}}
	for id := range model {
		if id == 1 || id == 3 || id > 0 && id%50 == 0 {
			for _, e := range after {
				recordEvent(l, id, e)
			}
			model[id] = append(slices.Clip(model[id]), after...)
		}
	}
	check()
}

func TestExhaustiveLedgerUnchangedSemantics(t *testing.T) {
	l := NewLedger()
	drive(l, 50)
	r := l.Verify()
	if !r.OK() {
		t.Fatalf("exhaustive verify failed: %v", r.Violations)
	}
	if r.Samples != 50 || r.Tracked != 50 || r.Stride != 1 {
		t.Fatalf("exhaustive report samples=%d tracked=%d stride=%d, want 50/50/1", r.Samples, r.Tracked, r.Stride)
	}
	if strings.Contains(r.String(), "sampled") {
		t.Fatalf("exhaustive report mentions sampling: %s", r.String())
	}
}

func TestDropBreakdownUsesExactCounters(t *testing.T) {
	l := NewSampledLedger(7)
	drive(l, 700)
	bd := l.DropBreakdown()
	if bd[ReasonAdmission] != 140 {
		t.Fatalf("DropBreakdown[admission] = %d, want exact 140 under sampling", bd[ReasonAdmission])
	}
}

func TestLedgerDigestDeterministic(t *testing.T) {
	a, b := NewLedger(), NewLedger()
	drive(a, 30)
	drive(b, 30)
	if a.Digest() != b.Digest() {
		t.Fatal("identical event streams produced different digests")
	}
	c := NewLedger()
	drive(c, 30)
	c.Completed(31, 31, 1) // extra event must change the digest
	if a.Digest() == c.Digest() {
		t.Fatal("diverging event streams produced identical digests")
	}
	var nilLedger *Ledger
	if nilLedger.Digest() != "" {
		t.Fatal("nil ledger digest not empty")
	}
}

// TestKeyDivisibilityMatchesDivision checks the sampled ledger's
// multiply-rotate divisibility test against % and its key against /, on
// a dense id range around zero and the ids around the int64 extremes and
// their nearest multiples of the stride.
func TestKeyDivisibilityMatchesDivision(t *testing.T) {
	for _, stride := range []int64{2, 3, 7, 8, 12, 100, 1000, 1024, 1<<61 - 1, math.MaxInt64} {
		l := NewSampledLedger(stride)
		ids := idRange(-5000, 5000)
		for _, edge := range []int64{math.MinInt64, math.MaxInt64, math.MinInt64 / stride * stride, math.MaxInt64 / stride * stride, stride, -stride} {
			for d := int64(-3); d <= 3; d++ {
				if id := edge + d; (d < 0) == (id < edge) { // no wraparound
					ids = append(ids, id)
				}
			}
		}
		for _, id := range ids {
			tracked := l.tracks(id)
			k := l.key(id)
			if want := id%stride == 0; tracked != want {
				t.Fatalf("stride %d: id %d tracked=%v, want %v", stride, id, tracked, want)
			}
			if tracked && k != id/stride {
				t.Fatalf("stride %d: id %d key %d, want %d", stride, id, k, id/stride)
			}
		}
	}
}
