package audit

import (
	"fmt"
	"sort"
	"strings"
)

// refVerify is the full-walk verification the online checks replaced:
// it rebuilds every tracked sample's events and re-derives every
// violation and per-stage tally from scratch. It and refDigest are kept
// as the oracles the differential and fuzz tests compare Verify and
// Digest against. Both walk ids, the tracked ids in first-seen order as
// the caller kept them, never the ledger's own index, so an ordering bug
// in the ledger cannot pass both sides.
func refVerify(l *Ledger, ids []int64) *Report {
	r := &Report{ByReason: make(map[Reason]int), Stages: make(map[int]*StageFlow), Stride: 1}
	if l == nil {
		return r
	}
	r.Stride = l.stride
	r.Tracked = len(ids)
	if l.stride > 1 {
		// Sampled mode: population totals come from the exact O(1)
		// counters; per-sample invariants below cover the tracked subset.
		r.Samples = l.arrivedTotal
	} else {
		r.Samples = len(ids)
	}
	r.Completed = l.completedTotal
	r.Dropped = l.droppedTotal
	r.ByReason = l.DropBreakdown()
	stage := func(si int) *StageFlow {
		f := r.Stages[si]
		if f == nil {
			f = &StageFlow{}
			r.Stages[si] = f
		}
		return f
	}
	var evs []Event
	for _, id := range ids {
		evs = l.appendEvents(evs[:0], id)
		terminals := 0
		lastStage := -1 // last stage the sample was dispatched into
		prevAt := 0.0
		for i, e := range evs {
			if i > 0 && e.At < prevAt {
				r.addViolation("sample %d: %s at t=%v before prior event at t=%v", id, e.Kind, e.At, prevAt)
			}
			prevAt = e.At
			if e.Kind == KindArrived && i != 0 {
				r.addViolation("sample %d: arrival is event #%d, want first", id, i+1)
			}
			switch e.Kind {
			case KindCompleted, KindDropped:
				terminals++
				if i != len(evs)-1 {
					r.addViolation("sample %d: terminal %s followed by %d more event(s)", id, e.Kind, len(evs)-1-i)
				}
			case KindDispatched:
				if e.Stage < lastStage {
					r.addViolation("sample %d: dispatched to stage %d after stage %d", id, e.Stage, lastStage)
				}
				if lastStage >= 0 && e.Stage > lastStage {
					stage(lastStage).Forwarded++
				}
				stage(e.Stage).In++
				lastStage = e.Stage
			}
			if e.Kind == KindDropped && !knownReason(e.Reason) {
				r.addViolation("sample %d: drop reason %q unclassified", id, e.Reason)
			}
		}
		switch {
		case terminals == 0:
			r.addViolation("sample %d: no terminal event (%d event(s), last %s at t=%v)",
				id, len(evs), evs[len(evs)-1].Kind, evs[len(evs)-1].At)
		case terminals > 1:
			r.addViolation("sample %d: %d terminal events, want exactly 1", id, terminals)
		}
		if terminals >= 1 {
			// Attribute the first terminal to the last dispatched stage.
			// (Population-level Completed/Dropped/ByReason totals come from
			// the O(1) counters, exact in both modes; the stage tallies
			// cover the detail-tracked subset.)
			for _, e := range evs {
				if e.Kind == KindCompleted {
					if lastStage >= 0 {
						stage(lastStage).Completed++
					}
					break
				}
				if e.Kind == KindDropped {
					if lastStage >= 0 {
						stage(lastStage).Dropped++
					}
					break
				}
			}
		}
	}
	// Per-stage balance: everything dispatched in must terminate there or
	// be forwarded onward. (Samples stuck mid-stage already violated the
	// terminal check; this catches tally drift in the accounting itself.)
	// Walk stages in index order, not map order: violations are report
	// output and must be byte-identical run to run.
	stageIdx := make([]int, 0, len(r.Stages))
	for si := range r.Stages {
		stageIdx = append(stageIdx, si)
	}
	sort.Ints(stageIdx)
	for _, si := range stageIdx {
		f := r.Stages[si]
		if out := f.Completed + f.Dropped + f.Forwarded; out != f.In {
			r.addViolation("stage %d: in %d ≠ out %d (completed %d + dropped %d + forwarded %d)",
				si, f.In, out, f.Completed, f.Dropped, f.Forwarded)
		}
	}
	return r
}

// refDigest is Digest as rendered with fmt before it moved to strconv,
// walking ids like refVerify.
func refDigest(l *Ledger, ids []int64) string {
	var b strings.Builder
	if l == nil {
		return ""
	}
	fmt.Fprintf(&b, "totals arrived=%d completed=%d dropped=%d", l.arrivedTotal, l.completedTotal, l.droppedTotal)
	byReason := l.DropBreakdown()
	reasons := make([]string, 0, len(byReason))
	for reason := range byReason {
		reasons = append(reasons, string(reason))
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		fmt.Fprintf(&b, " %s=%d", reason, byReason[Reason(reason)])
	}
	b.WriteByte('\n')
	var evs []Event
	for _, id := range ids {
		fmt.Fprintf(&b, "%d:", id)
		evs = l.appendEvents(evs[:0], id)
		for _, e := range evs {
			fmt.Fprintf(&b, " %s@%v", e.Kind, e.At)
			if e.Kind == KindDispatched {
				fmt.Fprintf(&b, "(s%d,i%d)", e.Stage, e.Instance)
			}
			if e.Kind == KindMerged {
				fmt.Fprintf(&b, "(s%d)", e.Stage)
			}
			if e.Kind == KindCompleted {
				fmt.Fprintf(&b, "(x%d)", e.ExitLayer)
			}
			if e.Kind == KindDropped {
				fmt.Fprintf(&b, "(%s)", e.Reason)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// firstSeen keeps a stream's tracked ids in first-seen order, apart from
// the ledger: note is called with every recorded id and applies the
// ledger's stride the way its documentation states it.
type firstSeen struct {
	stride int64
	seen   map[int64]bool
	ids    []int64
}

func newFirstSeen(stride int64) *firstSeen {
	return &firstSeen{stride: stride, seen: make(map[int64]bool)}
}

func (f *firstSeen) note(id int64) {
	if f.stride > 1 && id%f.stride != 0 || f.seen[id] {
		return
	}
	f.seen[id] = true
	f.ids = append(f.ids, id)
}

// idRange returns lo..hi, the first-seen order of drive(l, hi) when lo is 1.
func idRange(lo, hi int64) []int64 {
	ids := make([]int64, 0, hi-lo+1)
	for id := lo; id <= hi; id++ {
		ids = append(ids, id)
	}
	return ids
}
