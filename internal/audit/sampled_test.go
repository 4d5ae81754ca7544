package audit

import (
	"strings"
	"testing"
	"unsafe"
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
		l.Dispatched(id, at+0.002, 0, int(id%4))
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
	drive(l, 10_000)
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

// TestExhaustiveRecordAllocs holds the arena's allocation profile: over
// 100k samples, recording amortizes to at most 0.01 allocations per
// event (the map-of-slices store it replaced made ~0.7).
func TestExhaustiveRecordAllocs(t *testing.T) {
	if size := unsafe.Sizeof(rec{}); size != 24 {
		t.Fatalf("arena record is %d bytes, want 24", size)
	}
	const samples = 100_000
	events := 4*samples - samples/5 // drive drops every 5th sample before dispatch
	allocs := testing.AllocsPerRun(1, func() { drive(NewLedger(), samples) })
	if perEvent := allocs / float64(events); perEvent > 0.01 {
		t.Fatalf("exhaustive record: %.4f allocs/event over %d events, want ≤ 0.01", perEvent, events)
	}
}

// TestLedgerEventsRoundTrip checks Events reconstructs every field of a
// sample's lifecycle, including one that spans several arena chunks.
func TestLedgerEventsRoundTrip(t *testing.T) {
	l := NewLedger()
	l.Arrived(3, 0.5)
	want := []Event{{Kind: KindArrived, At: 0.5}}
	for i := 0; i < chunkLen+10; i++ {
		at := 1 + float64(i)
		l.Dispatched(3, at, i%5, i%7)
		l.Merged(4, at, i%3) // interleaved with another sample
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
	if l.Events(5) != nil {
		t.Fatal("Events of an unseen id is not nil")
	}
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
