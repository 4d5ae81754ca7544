package optimizer

import (
	"fmt"
	"strings"

	"e3/internal/store"
)

// PlanDiff is the structured difference between two consecutive plans —
// what the control loop's replan actually changed. Window, At, and Reason
// are filled by the caller (the replan loop knows its clock; the
// optimizer does not).
type PlanDiff struct {
	// Window is the scheduling-window index at which the replan fired; At
	// is its virtual time.
	Window int     `json:"window"`
	At     float64 `json:"at"`
	// Reason records why the loop replanned ("initial plan", "forecast
	// drift 0.081 > 0.050", ...).
	Reason string `json:"reason"`
	// Changed is false when the planner was re-run but produced an
	// identical deployment.
	Changed bool `json:"changed"`

	// OldBounds/NewBounds are the interior split boundaries (the To layer
	// of every non-final split); BoundsMoved flags a difference.
	OldBounds   []int `json:"old_bounds"`
	NewBounds   []int `json:"new_bounds"`
	BoundsMoved bool  `json:"bounds_moved"`
	// KindChanges lists per-split GPU-kind changes ("s0: V100->P100"),
	// including splits added or removed by a repartition.
	KindChanges []string `json:"kind_changes,omitempty"`
	// ReplicaChanges lists per-split replica-count deltas ("s1: 4->6").
	ReplicaChanges []string `json:"replica_changes,omitempty"`

	OldGoodput float64 `json:"old_goodput"`
	NewGoodput float64 `json:"new_goodput"`
	OldGPUs    int     `json:"old_gpus"`
	NewGPUs    int     `json:"new_gpus"`
}

// interiorBounds extracts a plan's interior split boundaries.
func interiorBounds(p Plan) []int {
	out := []int{}
	for i := 0; i < len(p.Splits)-1; i++ {
		out = append(out, p.Splits[i].To)
	}
	return out
}

// DiffPlans computes the structured difference from old to new. A
// zero-valued old plan (no splits) marks the initial plan: everything in
// new counts as a change.
func DiffPlans(old, new Plan) PlanDiff {
	d := PlanDiff{
		OldBounds: interiorBounds(old), NewBounds: interiorBounds(new),
		OldGoodput: old.Goodput, NewGoodput: new.Goodput,
		OldGPUs: old.GPUs, NewGPUs: new.GPUs,
	}
	if len(d.OldBounds) != len(d.NewBounds) {
		d.BoundsMoved = true
	} else {
		for i := range d.OldBounds {
			if d.OldBounds[i] != d.NewBounds[i] {
				d.BoundsMoved = true
				break
			}
		}
	}
	n := len(old.Splits)
	if len(new.Splits) < n {
		n = len(new.Splits)
	}
	for i := 0; i < n; i++ {
		o, w := old.Splits[i], new.Splits[i]
		if o.Kind != w.Kind {
			d.KindChanges = append(d.KindChanges, fmt.Sprintf("s%d: %s->%s", i, o.Kind, w.Kind))
		}
		if o.Replicas != w.Replicas {
			d.ReplicaChanges = append(d.ReplicaChanges, fmt.Sprintf("s%d: %d->%d", i, o.Replicas, w.Replicas))
		}
	}
	for i := n; i < len(old.Splits); i++ {
		d.KindChanges = append(d.KindChanges,
			fmt.Sprintf("s%d: removed [%d-%d]x%d@%s", i, old.Splits[i].From, old.Splits[i].To,
				old.Splits[i].Replicas, old.Splits[i].Kind))
	}
	for i := n; i < len(new.Splits); i++ {
		d.KindChanges = append(d.KindChanges,
			fmt.Sprintf("s%d: added [%d-%d]x%d@%s", i, new.Splits[i].From, new.Splits[i].To,
				new.Splits[i].Replicas, new.Splits[i].Kind))
	}
	d.Changed = len(old.Splits) == 0 || d.BoundsMoved ||
		len(d.KindChanges) > 0 || len(d.ReplicaChanges) > 0
	return d
}

// String renders the diff compactly and deterministically — the replan
// loop's determinism test compares these byte for byte.
func (d PlanDiff) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "window %d @%.3fs (%s):", d.Window, d.At, d.Reason)
	if !d.Changed {
		b.WriteString(" plan unchanged")
		return b.String()
	}
	if d.BoundsMoved {
		fmt.Fprintf(&b, " bounds %v->%v;", d.OldBounds, d.NewBounds)
	}
	for _, c := range d.KindChanges {
		fmt.Fprintf(&b, " kind %s;", c)
	}
	for _, c := range d.ReplicaChanges {
		fmt.Fprintf(&b, " replicas %s;", c)
	}
	fmt.Fprintf(&b, " goodput %.0f->%.0f/s; gpus %d->%d", d.OldGoodput, d.NewGoodput, d.OldGPUs, d.NewGPUs)
	return b.String()
}

// DiffRing retains the most recent plan diffs in a bounded ring, so a
// long-lived server's replan history cannot grow with uptime. Like the
// telemetry span ring, a nil *DiffRing is valid and records nothing.
type DiffRing struct {
	diffs store.Ring[PlanDiff]
}

// NewDiffRing builds a ring retaining the most recent capacity diffs.
func NewDiffRing(capacity int) *DiffRing {
	return &DiffRing{diffs: store.NewRing[PlanDiff](max(capacity, 1))}
}

// Push appends one diff, evicting the oldest once full.
func (r *DiffRing) Push(d PlanDiff) {
	if r == nil {
		return
	}
	r.diffs.Push(d)
}

// Items returns the retained diffs oldest-first (a copy).
func (r *DiffRing) Items() []PlanDiff {
	if r == nil {
		return nil
	}
	return r.diffs.AppendTo(make([]PlanDiff, 0, r.diffs.Len()))
}

// Total reports diffs pushed over the ring's lifetime, including evicted
// ones.
func (r *DiffRing) Total() int {
	if r == nil {
		return 0
	}
	return r.diffs.Total()
}

// Evicted reports how many diffs the ring has discarded.
func (r *DiffRing) Evicted() int {
	if r == nil {
		return 0
	}
	return r.diffs.Evicted()
}
