package audit

import (
	"math"
	"math/rand"
	"testing"
)

// Lifecycle shapes modelLife draws.
const (
	lifeClean = iota
	lifeOpen
	lifeReopened
	lifeLong
	lifeLongReopened
	lifeOddTimes
	lifeShapes
)

// modelLife returns one sample's events, as Events reports them, for a
// lifecycle of the given shape: clean (arrival to one terminal), open
// (never terminated), reopened (events after a clean terminal, at times
// going on or back), long (more than one mask word of events) and long
// reopened, and odd times (+0, −0 and NaN, repeated). A third of the
// other shapes' events repeat their predecessor's time bits.
func modelLife(rng *rand.Rand, shape int, start float64) []Event {
	var evs []Event
	at := start
	odd := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0042), 5e-324}
	add := func(e Event) {
		switch {
		case shape == lifeOddTimes:
			at = odd[rng.Intn(len(odd))]
			if rng.Intn(2) == 0 && len(evs) > 0 {
				at = evs[len(evs)-1].At
			}
		case len(evs) > 0 && rng.Intn(3) != 0:
			at += rng.Float64() * 1e-3
		}
		e.At = at
		evs = append(evs, e)
	}
	add(Event{Kind: KindArrived})
	add(Event{Kind: KindQueued})
	merges := 0
	if shape == lifeLong || shape == lifeLongReopened {
		merges = 32 + rng.Intn(40)
	}
	for range merges {
		add(Event{Kind: KindMerged, Stage: 0})
	}
	hops := 1 + rng.Intn(3)
	for s := 0; s < hops; s++ {
		if s > 0 {
			add(Event{Kind: KindMerged, Stage: s})
		}
		add(Event{Kind: KindDispatched, Stage: s, Instance: rng.Intn(4)})
	}
	if shape == lifeOpen {
		return evs
	}
	terminal := func() {
		if rng.Intn(4) == 0 {
			add(Event{Kind: KindDropped, Reason: []Reason{ReasonAdmission, ReasonStaleShed, ReasonSLAFlush}[rng.Intn(3)]})
		} else {
			add(Event{Kind: KindCompleted, ExitLayer: 1 + rng.Intn(12)})
		}
	}
	terminal()
	if shape == lifeReopened || shape == lifeLongReopened {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			if rng.Intn(3) == 0 {
				at -= 1e-2 // back in time
			}
			switch rng.Intn(3) {
			case 0:
				add(Event{Kind: KindMerged, Stage: hops})
			case 1:
				add(Event{Kind: KindDispatched, Stage: hops, Instance: 1})
			default:
				terminal()
			}
		}
	}
	return evs
}

// recordEvent records e for id.
func recordEvent(l *Ledger, id int64, e Event) {
	switch e.Kind {
	case KindArrived:
		l.Arrived(id, e.At)
	case KindQueued:
		l.Queued(id, e.At)
	case KindDispatched:
		dispatched(l, id, e.At, e.Stage, e.Instance)
	case KindMerged:
		merged(l, id, e.At, e.Stage)
	case KindCompleted:
		l.Completed(id, e.At, e.ExitLayer)
	case KindDropped:
		l.Dropped(id, e.At, e.Reason)
	}
}

// sameEvents reports whether got and want are equal, comparing times by
// their bits so NaN, −0 and +0 must each come back as recorded.
func sameEvents(got, want []Event) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g.At) != math.Float64bits(w.At) {
			return false
		}
		g.At, w.At = 0, 0
		if g != w {
			return false
		}
	}
	return true
}

// TestEventsMatchModel keeps its own per-id event lists, apart from the
// ledger, and checks Events returns them for every id, at strides 1 and
// 7, both while samples are interleaved in flight and at the end: open,
// cleanly closed, reopened and never terminated samples, chains longer
// than one mask word, and repeated, signed-zero and NaN times.
func TestEventsMatchModel(t *testing.T) {
	for _, stride := range []int64{1, 7} {
		rng := rand.New(rand.NewSource(stride))
		l := NewSampledLedger(stride)
		model := make(map[int64][]Event)
		// Ids run from negative (the sparse map) through the dense range.
		ids := make([]int64, 0, 600)
		lives := make([][]Event, 0, 600)
		for i := range 600 {
			id := int64(i) - 100
			ids = append(ids, id)
			lives = append(lives, modelLife(rng, i%lifeShapes, float64(i)*1e-3))
		}
		check := func() {
			t.Helper()
			for _, id := range ids {
				if got, want := l.Events(id), model[id]; !sameEvents(got, want) {
					t.Fatalf("stride %d: Events(%d) = %+v, want %+v", stride, id, got, want)
				}
			}
		}
		for recorded := 1; ; recorded++ {
			live := make([]int, 0, len(lives))
			for i, life := range lives {
				if len(life) > 0 {
					live = append(live, i)
				}
			}
			if len(live) == 0 {
				break
			}
			i := live[rng.Intn(len(live))]
			e := lives[i][0]
			lives[i] = lives[i][1:]
			recordEvent(l, ids[i], e)
			if ids[i]%stride == 0 {
				model[ids[i]] = append(model[ids[i]], e)
			}
			if recorded%1000 == 0 {
				check()
			}
		}
		check()
		if l.slots.InUse() == 0 {
			t.Fatalf("stride %d: every slot is free; open, reopened and odd samples should hold some", stride)
		}
	}
}

// TestCleanSamplesFreeTheirSlots records 100k clean samples, many in
// flight at once, and checks the slot table never grew past the most
// samples open at one time, and that every slot ends free.
func TestCleanSamplesFreeTheirSlots(t *testing.T) {
	l := NewLedger()
	open, most := 0, 0
	for _, e := range replanMix(100_000) {
		if e.kind == KindArrived {
			if open++; open > most {
				most = open
			}
		}
		recordEvent(l, e.id, Event{Kind: e.kind, At: e.at, Stage: e.stage, ExitLayer: e.stage})
		if e.kind == KindCompleted {
			open--
		}
	}
	if r := l.Verify(); !r.OK() || l.clean != 100_000 {
		t.Fatalf("clean = %d, violations %v", l.clean, r.Violations)
	}
	if l.slots.Len() > most || most < 2 {
		t.Fatalf("%d slots for at most %d samples open at once", l.slots.Len(), most)
	}
	if l.slots.InUse() != 0 {
		t.Fatalf("%d of %d slots open after every sample closed", l.slots.InUse(), l.slots.Len())
	}
}
