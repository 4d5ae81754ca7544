// Package audit provides a per-sample lifecycle ledger for the serving
// stack. Every sample minted by the workload generator is tracked through
// its transitions — arrived → queued (batcher) → dispatched(stage,
// instance) → merged → completed(exit layer) | dropped(reason) — each with
// its virtual timestamp. At end of run Verify asserts conservation
// invariants: no sample is lost or double-terminated, timestamps are
// monotone per sample, every drop carries a classified reason, and
// per-stage in/out counts balance. The ledger is the simulator's
// self-check: E3's whole value proposition is goodput accounting under
// SLOs (§3.1, §4), so every sample must be accounted exactly once.
//
// A nil *Ledger is valid and records nothing, so call sites wire events
// unconditionally and auditing costs nothing when disabled.
package audit

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind enumerates lifecycle transitions.
type Kind uint8

const (
	// KindArrived marks a sample minted by the generator.
	KindArrived Kind = iota
	// KindQueued marks admission into a batcher queue.
	KindQueued
	// KindDispatched marks hand-off to a runner stage instance.
	KindDispatched
	// KindMerged marks entry into a stage's survivor merge queue.
	KindMerged
	// KindCompleted marks execution finishing (terminal).
	KindCompleted
	// KindDropped marks shedding without completion (terminal).
	KindDropped
)

// String names the kind for violation messages.
func (k Kind) String() string {
	switch k {
	case KindArrived:
		return "arrived"
	case KindQueued:
		return "queued"
	case KindDispatched:
		return "dispatched"
	case KindMerged:
		return "merged"
	case KindCompleted:
		return "completed"
	case KindDropped:
		return "dropped"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Reason classifies why a sample was dropped.
type Reason string

const (
	// ReasonAdmission: shed on arrival — hopeless even if dispatched now.
	ReasonAdmission Reason = "admission"
	// ReasonStaleShed: shed from a runner backlog after its deadline became
	// unreachable (Clockwork-style, §3.1).
	ReasonStaleShed Reason = "stale-shed"
	// ReasonSLAFlush: shed from the batcher queue at an SLA-pressure flush.
	ReasonSLAFlush Reason = "sla-flush"
)

// Event is one recorded transition.
type Event struct {
	Kind Kind
	// At is the virtual time of the transition.
	At float64
	// Stage and Instance locate a dispatch (Instance is a device index).
	Stage, Instance int
	// ExitLayer is the 1-based exit layer of a completion.
	ExitLayer int
	// Reason classifies a drop.
	Reason Reason
}

// Ledger records lifecycle events keyed by sample ID. It is not safe for
// concurrent use; like the sim engine, all recording happens on the event
// loop's goroutine.
//
// A ledger runs in one of two modes. The exhaustive mode (NewLedger)
// stores every event of every sample — the default for experiments and
// the verify gates. The sampled mode (NewSampledLedger) stores per-event
// detail only for every Nth sample ID while still maintaining exact O(1)
// terminal totals for the whole population, so conservation cross-checks
// against the collector and telemetry stay exact at paper-trace scale
// (tens of millions of requests) where exhaustive tracking would dominate
// both memory and the event loop's hot path.
//
// Per-event detail lives in a pointer-free arena of 24-byte records, so
// the garbage collector never scans it. The arena is a list of fixed-size
// chunks: growing it allocates one chunk and copies nothing. Each tracked
// sample's events form a linked list through the arena. A dense index
// keyed by id/stride holds each list's head and tail; ids outside the
// dense range (negative, or far beyond every id seen so far) go to a small
// sparse map. Drop reasons are interned per ledger, so a record stores a
// code instead of a string. Nothing is allocated for detail until the
// first tracked id arrives. Stage, instance and exit-layer operands are
// stored as int32.
type Ledger struct {
	// chunks is the event arena. Every chunk but the last holds exactly
	// chunkLen records; the first chunk grows by append, so a ledger that
	// tracks a handful of samples stays small. Record 0 is never used:
	// index 0 means "none" in chains and next links.
	chunks [][]rec
	// dense indexes tracked ids by id/stride. sparse maps any other
	// tracked id to its chain in spill.
	dense  []chain
	sparse map[int64]int32
	spill  []chain
	// order lists tracked ids in first-seen order, the order Verify and
	// Digest walk.
	order []int64
	// stride samples per-event detail for ids divisible by it (≤1 =
	// exhaustive).
	stride int64
	// reasons interns drop reasons in first-seen order; a record's reason
	// field indexes it.
	reasons []Reason
	// Population-exact O(1) counters, maintained for every event whether
	// or not its sample is tracked in detail. byReasonTotal is indexed by
	// reason code.
	arrivedTotal   int
	completedTotal int
	droppedTotal   int
	byReasonTotal  []int
}

// rec is one stored event: 24 bytes, no pointers.
type rec struct {
	at float64
	// next is the arena index of the sample's next event (0 ends the list).
	next int32
	// a and b carry the kind's operands: stage and instance for a
	// dispatch, stage for a merge, exit layer for a completion.
	a, b int32
	// reason is a drop's code in Ledger.reasons.
	reason uint16
	kind   Kind
}

// chain locates one sample's event list in the arena.
type chain struct{ head, tail int32 }

const (
	chunkBits = 14
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
	// maxChunks keeps every arena index within int32.
	maxChunks = 1 << (31 - chunkBits)
	// firstChunkCap is the first chunk's starting capacity.
	firstChunkCap = 64
	// denseReach is how far past twice the dense index's length a
	// first-seen id may land and still grow the index rather than go to
	// the sparse map.
	denseReach = 1 << 12
)

// NewLedger returns an empty exhaustive ledger.
func NewLedger() *Ledger {
	return &Ledger{stride: 1}
}

// NewSampledLedger returns a ledger that audits per-sample invariants on
// every stride-th sample ID while keeping exact terminal totals for all
// samples. A stride ≤ 1 is exhaustive.
func NewSampledLedger(stride int64) *Ledger {
	l := NewLedger()
	if stride > 1 {
		l.stride = stride
	}
	return l
}

// Enabled reports whether events are being recorded.
func (l *Ledger) Enabled() bool { return l != nil }

// Stride reports the detail-sampling stride (1 = exhaustive, nil = 0).
func (l *Ledger) Stride() int64 {
	if l == nil {
		return 0
	}
	return l.stride
}

// key maps an id to its dense-index key; tracked is false when the id's
// per-event detail is not sampled.
func (l *Ledger) key(id int64) (k int64, tracked bool) {
	if l.stride <= 1 {
		return id, true
	}
	return id / l.stride, id%l.stride == 0
}

// lookup returns a tracked id's chain, or nil before its first event.
func (l *Ledger) lookup(id, k int64) *chain {
	if k >= 0 && k < int64(len(l.dense)) && l.dense[k].head != 0 {
		return &l.dense[k]
	}
	if len(l.sparse) > 0 {
		if j, ok := l.sparse[id]; ok {
			return &l.spill[j]
		}
	}
	return nil
}

// register gives a first-seen tracked id an empty chain.
func (l *Ledger) register(id, k int64) *chain {
	l.order = append(l.order, id)
	if n := int64(len(l.dense)); k >= 0 && k < 2*n+denseReach {
		for int64(len(l.dense)) <= k {
			l.dense = append(l.dense, chain{})
		}
		return &l.dense[k]
	}
	if l.sparse == nil {
		l.sparse = make(map[int64]int32) //e3:alloc once per ledger, at its first id outside the dense range
	}
	l.sparse[id] = int32(len(l.spill))
	l.spill = append(l.spill, chain{})
	return &l.spill[len(l.spill)-1]
}

// at returns the arena record at index i.
func (l *Ledger) at(i int32) *rec { return &l.chunks[i>>chunkBits][i&chunkMask] }

// push appends r to the arena and returns its index.
func (l *Ledger) push(r rec) int32 {
	last := len(l.chunks) - 1
	switch {
	case last < 0:
		l.chunks = append(l.chunks, make([]rec, 1, firstChunkCap)) //e3:alloc arena growth: the first chunk, at the first tracked id
		last = 0
	case len(l.chunks[last]) == chunkLen:
		if len(l.chunks) == maxChunks {
			panic("audit: event arena full")
		}
		l.chunks = append(l.chunks, make([]rec, 0, chunkLen)) //e3:alloc arena growth: one chunk per chunkLen events, nothing copied
		last++
	}
	l.chunks[last] = append(l.chunks[last], r)
	return int32(last<<chunkBits + len(l.chunks[last]) - 1)
}

//e3:hotpath runs once per lifecycle event; sampled mode counts in O(1) and must not allocate off the detail path
func (l *Ledger) record(id int64, r rec) {
	if l == nil {
		return
	}
	switch r.kind {
	case KindArrived:
		l.arrivedTotal++
	case KindCompleted:
		l.completedTotal++
	case KindDropped:
		l.droppedTotal++
		l.byReasonTotal[r.reason]++
	}
	k, tracked := l.key(id)
	if !tracked {
		return
	}
	c := l.lookup(id, k)
	if c == nil {
		c = l.register(id, k)
	}
	i := l.push(r)
	if c.head == 0 {
		c.head = i
	} else {
		l.at(c.tail).next = i
	}
	c.tail = i
}

// intern returns reason's code, adding it to the table on first sight so
// Verify can still name an unclassified reason.
func (l *Ledger) intern(reason Reason) uint16 {
	for code, r := range l.reasons {
		if r == reason {
			return uint16(code)
		}
	}
	if len(l.reasons) > math.MaxUint16 {
		panic("audit: too many distinct drop reasons")
	}
	l.reasons = append(l.reasons, reason)
	l.byReasonTotal = append(l.byReasonTotal, 0)
	return uint16(len(l.reasons) - 1)
}

// Arrived records a sample minted by the generator at virtual time at.
func (l *Ledger) Arrived(id int64, at float64) {
	l.record(id, rec{kind: KindArrived, at: at})
}

// Queued records admission into a batcher queue.
func (l *Ledger) Queued(id int64, at float64) {
	l.record(id, rec{kind: KindQueued, at: at})
}

// Dispatched records hand-off to stage's instance (a device index).
func (l *Ledger) Dispatched(id int64, at float64, stage, instance int) {
	l.record(id, rec{kind: KindDispatched, at: at, a: int32(stage), b: int32(instance)})
}

// Merged records entry into stage's survivor merge queue.
func (l *Ledger) Merged(id int64, at float64, stage int) {
	l.record(id, rec{kind: KindMerged, at: at, a: int32(stage)})
}

// Completed records execution finishing with the given 1-based exit layer.
func (l *Ledger) Completed(id int64, at float64, exitLayer int) {
	l.record(id, rec{kind: KindCompleted, at: at, a: int32(exitLayer)})
}

// Dropped records the sample being shed for the given reason.
func (l *Ledger) Dropped(id int64, at float64, reason Reason) {
	if l == nil {
		return
	}
	l.record(id, rec{kind: KindDropped, at: at, reason: l.intern(reason)})
}

// Samples reports how many distinct sample IDs have events.
func (l *Ledger) Samples() int {
	if l == nil {
		return 0
	}
	return len(l.order)
}

// Events returns the recorded events for one sample (nil if unknown).
func (l *Ledger) Events(id int64) []Event {
	if l == nil {
		return nil
	}
	return l.appendEvents(nil, id)
}

// appendEvents appends a sample's recorded events to dst.
func (l *Ledger) appendEvents(dst []Event, id int64) []Event {
	k, tracked := l.key(id)
	if !tracked {
		return dst
	}
	c := l.lookup(id, k)
	if c == nil {
		return dst
	}
	for i := c.head; i != 0; {
		r := l.at(i)
		e := Event{Kind: r.kind, At: r.at}
		switch r.kind {
		case KindDispatched:
			e.Stage, e.Instance = int(r.a), int(r.b)
		case KindMerged:
			e.Stage = int(r.a)
		case KindCompleted:
			e.ExitLayer = int(r.a)
		case KindDropped:
			e.Reason = l.reasons[r.reason]
		}
		dst = append(dst, e)
		i = r.next
	}
	return dst
}

// StageFlow tallies one stage's traffic for the balance check.
type StageFlow struct {
	// In counts batched samples dispatched into the stage.
	In int
	// Completed and Dropped count terminal outcomes attributed to the
	// stage (the sample's last dispatch before terminating).
	Completed int
	Dropped   int
	// Forwarded counts samples dispatched onward to a later stage.
	Forwarded int
}

// maxViolations bounds the report so a systemic bug doesn't balloon memory.
const maxViolations = 64

// Report is the outcome of a conservation audit.
type Report struct {
	// Samples is the number of distinct samples: all detail-tracked
	// samples for an exhaustive ledger, the exact population arrival
	// count for a sampled one.
	Samples int
	// Tracked is the number of samples audited in per-event detail
	// (== Samples for an exhaustive ledger).
	Tracked int
	// Stride is the detail-sampling stride the ledger ran with (1 =
	// exhaustive).
	Stride int64
	// Completed and Dropped count terminal outcomes, exact for the whole
	// population in both modes.
	Completed int
	Dropped   int
	// ByReason breaks Dropped down by classified reason.
	ByReason map[Reason]int
	// Stages maps stage index → in/out tallies.
	Stages map[int]*StageFlow
	// Violations lists human-readable invariant failures (capped).
	Violations []string
	// truncated counts violations beyond the cap.
	truncated int
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 && r.truncated == 0 }

// Err returns nil when OK, else an error summarizing the violations.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	n := len(r.Violations) + r.truncated
	return fmt.Errorf("audit: %d conservation violation(s); first: %s", n, r.Violations[0])
}

func (r *Report) addViolation(format string, args ...any) {
	if len(r.Violations) >= maxViolations {
		r.truncated++
		return
	}
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Violate appends an externally detected invariant violation to the
// report — the hook sibling subsystems (telemetry span reconciliation,
// collector cross-checks) use to fold their findings into the one audit
// verdict the -audit drivers act on.
func (r *Report) Violate(format string, args ...any) {
	r.addViolation(format, args...)
}

// CrossCheck asserts the ledger's terminal totals against an external
// accounting (the collector's Served+Violations and Dropped counters).
func (r *Report) CrossCheck(completed, dropped int) {
	if r.Completed != completed {
		r.addViolation("ledger completed %d, collector served+violated %d", r.Completed, completed)
	}
	if r.Dropped != dropped {
		r.addViolation("ledger dropped %d, collector dropped %d", r.Dropped, dropped)
	}
}

// String renders a one-line summary plus any violations.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d samples, %d completed, %d dropped", r.Samples, r.Completed, r.Dropped)
	if r.Stride > 1 {
		fmt.Fprintf(&b, " [sampled: every %dth of %d audited in detail, totals exact]", r.Stride, r.Tracked)
	}
	if len(r.ByReason) > 0 {
		reasons := make([]string, 0, len(r.ByReason))
		for reason := range r.ByReason {
			reasons = append(reasons, string(reason))
		}
		sort.Strings(reasons)
		parts := make([]string, len(reasons))
		for i, reason := range reasons {
			parts[i] = fmt.Sprintf("%s=%d", reason, r.ByReason[Reason(reason)])
		}
		fmt.Fprintf(&b, " (%s)", strings.Join(parts, " "))
	}
	if r.OK() {
		b.WriteString("; conservation OK")
		return b.String()
	}
	fmt.Fprintf(&b, "; %d violation(s):", len(r.Violations)+r.truncated)
	for _, v := range r.Violations {
		b.WriteString("\n  " + v)
	}
	if r.truncated > 0 {
		fmt.Fprintf(&b, "\n  ... and %d more", r.truncated)
	}
	return b.String()
}

func knownReason(reason Reason) bool {
	switch reason {
	case ReasonAdmission, ReasonStaleShed, ReasonSLAFlush:
		return true
	}
	return false
}

// Verify walks every tracked sample and checks the conservation
// invariants, returning a report with per-stage tallies. A nil ledger
// verifies vacuously (an empty, OK report).
func (l *Ledger) Verify() *Report {
	r := &Report{ByReason: make(map[Reason]int), Stages: make(map[int]*StageFlow), Stride: 1}
	if l == nil {
		return r
	}
	r.Stride = l.stride
	r.Tracked = len(l.order)
	if l.stride > 1 {
		// Sampled mode: population totals come from the exact O(1)
		// counters; per-sample invariants below cover the tracked subset.
		r.Samples = l.arrivedTotal
	} else {
		r.Samples = len(l.order)
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
	for _, id := range l.order {
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

// Totals reports the population-exact terminal counters in O(1), without
// running a full verification — the flight recorder's ledger snapshot and
// other live views read these. Exact in both exhaustive and sampled modes.
func (l *Ledger) Totals() (arrived, completed, dropped int) {
	if l == nil {
		return 0, 0, 0
	}
	return l.arrivedTotal, l.completedTotal, l.droppedTotal
}

// DropBreakdown returns drops per classified reason without running a full
// verification (for live stats endpoints). The counts are population-exact
// in both exhaustive and sampled modes (maintained as O(1) counters, so
// this no longer walks the event store).
func (l *Ledger) DropBreakdown() map[Reason]int {
	out := make(map[Reason]int)
	if l == nil {
		return out
	}
	for code, n := range l.byReasonTotal {
		out[l.reasons[code]] = n
	}
	return out
}

// Digest renders every tracked sample's event sequence plus the exact
// population totals as a canonical string. Two runs are behaviorally
// identical exactly when their digests are byte-identical — the property
// the pooled-vs-unpooled determinism tests and the simgate check assert.
func (l *Ledger) Digest() string {
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
	for _, id := range l.order {
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
