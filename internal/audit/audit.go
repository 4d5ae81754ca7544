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
// The invariants are checked online: each recorded event is compared
// with its sample's previous one, and per-stage tallies are kept as the
// events arrive. Verify then reads the finished tallies and walks event
// chains only for the samples it reports as violations.
//
// Storage scales with the samples in flight plus a compact record of the
// finished ones: an open sample's events sit in a reusable in-flight
// slot, and a cleanly terminated sample's chain is written once as a
// packed run of bytes, about 36 bytes per request on the replan loop, into
// a store the garbage collector never scans.
//
// A nil *Ledger is valid and records nothing, so call sites wire events
// unconditionally and auditing costs nothing when disabled.
package audit

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"e3/internal/store"
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
// A tracked sample's events live in an in-flight slot while it is open.
// Slots sit in a free-listed table (store.Slots), and a slot's buffers
// keep their capacity from one sample to the next, so the table grows
// with the samples in flight, never with run length. At the sample's
// clean terminal — its only terminal, recorded after no violation — its
// chain is written once as a packed run of bytes into a pointer-free
// paged store (store.Pages) and the slot is freed. A run holds same-time
// mask bytes, an op of usually one byte per event, then each time whose
// bits differ from the previous event's: the first as 8 bytes, each later
// one as a varint of its bits' difference from the one before (see
// close). The slot keeps an event's op as a 32-bit op word that packs its
// kind and operand; the rare operand that does not fit (a negative one, a
// dispatch's stage past 12 bits or instance past 16, anything past 28)
// goes to a per-ledger spill slice. Stage, instance and exit-layer
// operands are int32. Samples that never end, or turn bad, stay in their
// slots; an event after a clean terminal decodes the run back into a
// slot.
//
// A dense index keyed by id/stride holds one 8-byte entry per sample:
// its run's offset or its slot, and its first-seen rank. Ids outside the
// dense range (negative, or far beyond every id seen so far) go to a
// small sparse map. An event finds an open sample that has broken no
// invariant through a store.IDRing keyed by id/stride, which points at
// its slot, and walks the index only for a sample's first event, an
// event after its clean terminal, or a sample already bad. The ring
// grows with the span of the ids open at once, up to ringSpan positions
// per open slot; past that a new sample takes an old one's position, and
// the index finds the old one. The run store and both indexes grow a
// page at a time and copy nothing; their first pages start small, and
// nothing is allocated for detail until the first tracked id arrives.
// Neither the store nor the indexes hold pointers, so the garbage
// collector never scans them. Drop reasons are interned per ledger, so
// an op stores a code instead of a string. No slice lists the ids:
// Verify and Digest rebuild first-seen order from the stored ranks.
//
// Recording also checks each tracked sample against its previous event
// and its running state in the slot: the last dispatched stage and a bad
// flag, set once any invariant broke. Per-stage in/out tallies and the
// count of cleanly terminated samples are kept as events arrive.
type Ledger struct {
	// runs is the packed-run store, grown a page at a time. Byte 0 is
	// never used, so a run's offset is positive; end is the offset of the
	// next run.
	runs store.Pages[byte]
	end  int32
	// tail is the unwritten rest of the run store's last page, from end.
	tail []byte
	// slots holds the open samples' running state and events; ring maps
	// the key (id/stride) of each ringed sample to its slot.
	slots store.Slots[slot]
	ring  store.IDRing
	// scratch is where store encodes a run; evs is where reopen decodes
	// one.
	scratch []byte
	evs     []ev
	// dense indexes tracked ids by id/stride. sparse maps any other
	// tracked id to its entry in spill, in registration order. Both grow
	// a page at a time.
	dense  store.Pages[entry]
	sparse map[int64]int32
	spill  store.Pages[entry]
	// samples counts tracked ids. A sample's first-seen rank is the
	// count of ids tracked before it.
	samples int
	// wide holds the operands of events whose operands do not pack into
	// their op word; no real run records one.
	wide []operands
	// stride samples per-event detail for ids divisible by it (≤1 =
	// exhaustive); div tests that divisibility without dividing.
	stride int64
	div    divisor
	// reasons interns drop reasons in first-seen order; an op word's
	// reason field indexes it. known flags the codes of classified
	// reasons. lastReason is the code of the last drop's reason.
	reasons    []Reason
	known      []bool
	lastReason uint16
	// flows tallies per-stage traffic of tracked samples as it is
	// recorded: In and Forwarded at each dispatch, Completed or Dropped
	// at each clean terminal. Stages in [0, denseStages) index flows;
	// any other stage goes to farFlows.
	flows    []StageFlow
	farFlows map[int32]*StageFlow
	// clean counts tracked samples stored as runs: those whose last
	// event is a clean terminal.
	clean int
	// Population-exact O(1) counters, maintained for every event whether
	// or not its sample is tracked in detail. byReasonTotal is indexed by
	// reason code.
	arrivedTotal   int
	completedTotal int
	droppedTotal   int
	byReasonTotal  []int
}

// ev is one decoded event: its time's bits and its op word, which packs
// the kind, a 28-bit operand and a wide flag: a dispatch's stage and
// instance, a merge's stage, a completion's exit layer, a drop's reason
// code (see pack). A wide op word's operand indexes Ledger.wide instead.
type ev struct {
	at uint64
	op uint32
}

// opKind returns the transition an op word records.
func opKind(op uint32) Kind { return Kind(op & kindMask) }

// terminal reports whether k is a completion or a drop.
func (k Kind) terminal() bool { return k == KindCompleted || k == KindDropped }

// operands is an event's pair of int32 operands: a is a dispatch's or a
// merge's stage, a completion's exit layer or a drop's reason code; b is
// a dispatch's instance.
type operands struct{ a, b int32 }

// entryBytes is the size of an entry.
const entryBytes = 8

// entry locates one tracked sample: entryBytes.
type entry struct {
	// loc is the byte offset of the sample's run when positive, ^slot of
	// its open slot when negative, and 0 before its first event.
	loc int32
	// rank is the sample's first-seen rank among tracked ids.
	rank int32
}

// slot holds one open tracked sample's events so far: ops holds an op
// word per event; times holds, for each event whose time bits differ from
// the previous event's (+0 before the first), the low and high words of
// its bits minus those, wrapping; masks holds the finished same-time mask
// bytes of the packed run the slot closes to (see close), and mask the
// one being filled, whose next event takes bit. A free slot's buffers are
// empty and keep their capacity for the slot's next sample.
type slot struct {
	ops, times []uint32
	masks      []byte
	// e is the sample's index entry, which never moves.
	e  *entry
	id int64
	// at is the time bits of the sample's last event (+0 before its
	// first, which compares with +0).
	at        uint64
	mask, bit byte
	// last is the sample's last dispatched stage (-1 = none yet).
	last int32
	// bad marks a sample that broke an invariant; only a bad slot holds a
	// terminal. ringed marks a sample the ring points at: it is not bad,
	// and no later sample has taken its position in a full ring.
	bad, ringed bool
}

// push appends an event of time bits at and op word op.
func (s *slot) push(at uint64, op uint32) {
	if s.bit == moreMasks {
		s.masks = append(s.masks, s.mask|moreMasks)
		s.mask, s.bit = 0, 1
	}
	if at == s.at {
		s.mask |= s.bit
	} else {
		d := at - s.at
		s.times = append(s.times, uint32(d), uint32(d>>32))
	}
	s.bit <<= 1
	s.at = at
	s.ops = append(s.ops, op)
}

// events appends s's events to dst.
func (s *slot) events(dst []ev) []ev {
	var at uint64
	times := s.times
	for i, op := range s.ops {
		mask := s.mask
		if m := i / maskEvents; m < len(s.masks) {
			mask = s.masks[m]
		}
		if mask>>(i%maskEvents)&1 == 0 {
			at += uint64(times[0]) | uint64(times[1])<<32
			times = times[2:]
		}
		dst = append(dst, ev{at: at, op: op})
	}
	return dst
}

// maxSize bounds the bytes of s's packed run: an op takes at most 6 and
// a time 10, and the last varint's store may reach 8 bytes past the end.
func (s *slot) maxSize() int { return len(s.masks) + 1 + 6*len(s.ops) + 5*len(s.times) + 8 }

// encode writes s's packed run (see close) to run, which holds at least
// s.maxSize() bytes, and returns its length.
func (s *slot) encode(run []byte) int {
	n := 0
	if len(s.masks) > 0 {
		n = copy(run, s.masks)
	}
	run[n] = s.mask
	n++
	for _, op := range s.ops {
		if op < 1<<8 { // a short op
			run[n] = byte(op)
			n++
		} else {
			run[n] = byte(opEscape | op&kindMask<<kindBits)
			n += 1 + putVarint(run[n+1:], uint64(op>>kindBits))
		}
	}
	if len(s.times) > 0 {
		// The first time's bits, less +0's, then each time's difference.
		binary.LittleEndian.PutUint64(run[n:], uint64(s.times[0])|uint64(s.times[1])<<32)
		n += 8
		for i := 2; i < len(s.times); i += 2 {
			n += putVarint(run[n:], uint64(s.times[i])|uint64(s.times[i+1])<<32)
		}
	}
	return n
}

// putVarint writes x to b as a prefix varint and returns its length: the
// k ≤ 8 bytes of x<<k | 1<<(k−1), little-endian, for the least k whose 7k
// bits hold x, or, past 56 bits, a zero byte and x's 8 bytes. It stores 8
// bytes or 9 whatever k is, so b must hold 9.
func putVarint(b []byte, x uint64) int {
	k := (bits.Len64(x|1) + 6) / 7
	if k > 8 {
		b[0] = 0
		binary.LittleEndian.PutUint64(b[1:], x)
		return 9
	}
	binary.LittleEndian.PutUint64(b, x<<k|1<<(k-1))
	return k
}

// runReader reads the run store's bytes in order, crossing into the next
// page at the end of each.
type runReader struct {
	// buf is the unread rest of page p.
	buf  []byte
	runs *store.Pages[byte]
	p    int
}

// reader returns a reader of the run store from byte offset off.
func (l *Ledger) reader(off int32) runReader {
	p, o := store.Locate(int(off))
	return runReader{buf: l.runs.Page(p)[o:], runs: &l.runs, p: p}
}

// next returns the next byte.
func (r *runReader) next() byte {
	if len(r.buf) == 0 {
		r.p++
		r.buf = r.runs.Page(r.p)
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// le returns the next n ≤ 8 bytes as a little-endian number.
func (r *runReader) le(n int) uint64 {
	var x uint64
	for i := range n {
		x |= uint64(r.next()) << (8 * i)
	}
	return x
}

// varint returns the next prefix varint (see putVarint).
func (r *runReader) varint() uint64 {
	b := r.next()
	if b == 0 {
		return r.le(8)
	}
	k := bits.TrailingZeros8(b) + 1
	return (uint64(b) | r.le(k-1)<<8) >> k
}

// op returns the next op's op word: a short op byte is one, and an
// escape byte holds the kind of one whose other bits follow as a varint.
func (r *runReader) op() uint32 {
	b := uint32(r.next())
	if b&kindMask != opEscape {
		return b
	}
	return b>>kindBits | uint32(r.varint())<<kindBits
}

// divisor tests int64s for divisibility by a fixed d > 1 with a
// multiply, a rotate and a compare (Granlund and Montgomery): for
// d = d₀·2ᵏ with d₀ odd, an unsigned u is a multiple of d exactly when
// u·d₀⁻¹ mod 2⁶⁴, rotated right by k, is at most ⌊(2⁶⁴−1)/d⌋. A signed id
// is tested by its magnitude, which is exact for math.MinInt64 too.
type divisor struct {
	inv uint64 // d₀⁻¹ mod 2⁶⁴
	k   int
	max uint64
}

// newDivisor precomputes the test for d > 1.
func newDivisor(d int64) divisor {
	k := bits.TrailingZeros64(uint64(d))
	d0 := uint64(d) >> k
	// Newton's iteration doubles the correct low bits of an odd
	// number's inverse each step; d0 is its own inverse mod 8.
	inv := d0
	for range 5 {
		inv *= 2 - d0*inv
	}
	return divisor{inv: inv, k: k, max: math.MaxUint64 / uint64(d)}
}

// divides reports whether id is a multiple of the divisor.
func (v divisor) divides(id int64) bool {
	m := id >> 63
	u := uint64((id ^ m) - m) // |id|, and 2⁶³ for math.MinInt64
	return bits.RotateLeft64(u*v.inv, -v.k) <= v.max
}

const (
	// An op word: kindBits of kind, operandBits of operand, then the wide
	// flag. A dispatch gives stageBits of its operand to the stage and the
	// rest to the instance, laid out as the stage's low loStage bits, the
	// instance's low loInstance bits, the stage's other bits, then the
	// instance's: an event whose op word is below 1<<8 (a dispatch to a
	// stage below 4 and an instance below 8, or any other operand below
	// 32) is stored as that one byte. The run store marks any other op
	// with an escape byte, opEscape under its kind, which no op word's
	// low bits hold.
	kindBits     = 3
	kindMask     = 1<<kindBits - 1
	operandShift = kindBits
	operandBits  = 28
	wideFlag     = 1 << (kindBits + operandBits)
	stageBits    = 12
	stageMask    = 1<<stageBits - 1
	loStage      = 2
	loInstance   = 3
	opEscape     = kindMask

	// Mask byte m of a run flags in bit j that event maskEvents·m+j has
	// the same time bits as the event before it; its top bit flags that
	// another mask byte follows.
	maskEvents = 7
	moreMasks  = 1 << maskEvents

	// maxEntries keeps every store and index position within int32.
	maxEntries = math.MaxInt32 - store.PageLen
	// denseReach is how far past twice the dense index's length a
	// first-seen id may land and still grow the index rather than go to
	// the sparse map.
	denseReach = 1 << 12
	// denseStages bounds the stages whose tallies live in Ledger.flows.
	denseStages = 1 << 10
	// slotEvents is the events a new slot holds before its buffers grow:
	// every sample of the replan loop's mix.
	slotEvents = 8
	// ringSpan bounds the ring at that many positions per open slot: past
	// it, a new sample takes the position of an old one still open (a
	// straggler, a lost sample or a far id), which the index then finds.
	ringSpan = 8
)

// NewLedger returns an empty exhaustive ledger.
func NewLedger() *Ledger {
	return &Ledger{stride: 1, end: 1}
}

// NewSampledLedger returns a ledger that audits per-sample invariants on
// every stride-th sample ID while keeping exact terminal totals for all
// samples. A stride ≤ 1 is exhaustive.
func NewSampledLedger(stride int64) *Ledger {
	l := NewLedger()
	if stride > 1 {
		l.stride = stride
		l.div = newDivisor(stride)
	}
	return l
}

// Stride reports the detail-sampling stride (1 = exhaustive, nil = 0).
func (l *Ledger) Stride() int64 {
	if l == nil {
		return 0
	}
	return l.stride
}

// tracks reports whether id's per-event detail is sampled. It inlines
// into record, Dropped and the batch forms, so a sampled ledger turns an
// untracked id away with a multiply, a rotate and a compare.
func (l *Ledger) tracks(id int64) bool {
	return l.stride <= 1 || l.div.divides(id)
}

// key maps a tracked id to its dense-index key. Only a sampled ledger
// divides.
func (l *Ledger) key(id int64) int64 {
	if l.stride <= 1 {
		return id
	}
	return id / l.stride
}

// lookup returns a tracked id's entry, or nil before its first event.
func (l *Ledger) lookup(id, k int64) *entry {
	if k >= 0 && k < int64(l.dense.Len()) {
		if e := l.dense.At(int(k)); e.loc != 0 {
			return e
		}
	}
	return l.lookupSparse(id)
}

// lookupSparse returns a tracked id's entry in the sparse map, or nil.
func (l *Ledger) lookupSparse(id int64) *entry {
	if len(l.sparse) > 0 {
		if j, ok := l.sparse[id]; ok {
			return l.spill.At(int(j))
		}
	}
	return nil
}

// find returns the slot holding a tracked id's events, walking the index:
// it registers a first-seen id in the same walk, and decodes a cleanly
// terminated sample's run back into a slot.
func (l *Ledger) find(id, k int64) *slot {
	var e *entry
	if k >= 0 && k < int64(l.dense.Len()) {
		if e = l.dense.At(int(k)); e.loc == 0 {
			if f := l.lookupSparse(id); f != nil {
				e = f
			}
		}
	} else if e = l.lookupSparse(id); e == nil {
		e = l.place(id, k)
	}
	switch {
	case e.loc == 0:
		return l.register(e, id, k)
	case e.loc < 0:
		return l.slots.At(^e.loc)
	}
	return l.reopen(e, id)
}

// register ranks a first-seen tracked id at its fresh entry e and opens a
// slot for it.
func (l *Ledger) register(e *entry, id, k int64) *slot {
	if l.samples >= maxEntries {
		panic("audit: too many samples")
	}
	e.rank = int32(l.samples)
	l.samples++
	i, s := l.open(e, id)
	if j, ok := l.ring.PutAtMost(k, i, ringSpan*l.slots.InUse(), l.slotKey); ok {
		l.slots.At(j).ringed = false
	}
	s.ringed = true
	return s
}

// slotKey returns the ring key of the sample open in slot i.
func (l *Ledger) slotKey(i int32) int64 { return l.slots.At(i).id / l.stride }

// place returns the index entry for a first-seen tracked id outside the
// dense index's current length.
func (l *Ledger) place(id, k int64) *entry {
	if n := int64(l.dense.Len()); k >= 0 && k < 2*n+denseReach && k < maxEntries {
		for int64(l.dense.Len()) <= k {
			l.dense.Grow()
		}
		return l.dense.At(int(k))
	}
	if l.sparse == nil {
		l.sparse = make(map[int64]int32) //e3:alloc once per ledger, at its first id outside the dense range
	}
	j := int32(len(l.sparse))
	if int(j) == l.spill.Len() {
		if j >= maxEntries {
			panic("audit: sparse index full")
		}
		l.spill.Grow()
	}
	l.sparse[id] = j
	return l.spill.At(int(j))
}

// open points e at a free slot, set up for sample id.
func (l *Ledger) open(e *entry, id int64) (int32, *slot) {
	i, s := l.slots.Open()
	if s.ops == nil {
		// A new slot's op and time buffers share one allocation sized for
		// slotEvents events, each at its own time.
		buf := make([]uint32, 3*slotEvents) //e3:alloc once per slot, which is reused for the rest of the run
		s.ops, s.times = buf[:0:slotEvents], buf[slotEvents:slotEvents]
	}
	s.e, s.id, s.at, s.mask, s.bit, s.last, s.bad, s.ringed = e, id, 0, 0, 1, -1, false, false
	e.loc = ^i
	return i, s
}

// reopen decodes a cleanly terminated sample's run back into a slot, so
// an event can follow its terminal. The sample turns bad, so its
// terminal's tally is taken back, and it stays out of the ring.
func (l *Ledger) reopen(e *entry, id int64) *slot {
	run := e.loc
	_, s := l.open(e, id)
	l.evs = l.decode(l.evs[:0], run)
	for _, v := range l.evs {
		s.push(v.at, v.op)
		if opKind(v.op) == KindDispatched {
			s.last = l.unpack(v.op).a
		}
	}
	l.tallyTerminal(opKind(s.ops[len(s.ops)-1]), s.last, -1)
	l.clean--
	s.bad = true
	return s
}

// close writes s's events as a packed run at the end of the store, points
// its entry at it, and frees the slot and any ring position it holds
// under key k. The run holds, in order: a same-time mask byte per
// maskEvents events (see moreMasks), each event's op (see opEscape), and
// each time whose bits differ from the previous event's, the first as 8
// little-endian bytes and each later one as the prefix varint (see
// putVarint) of its bits minus the previous time's, wrapping.
func (l *Ledger) close(s *slot, k int64) {
	start := l.end
	if s.maxSize() <= len(l.tail) {
		size := s.encode(l.tail)
		l.tail = l.tail[size:]
		l.end += int32(size)
	} else {
		l.store(s)
	}
	i := ^s.e.loc
	s.e.loc = start
	s.ops, s.times, s.masks = s.ops[:0], s.times[:0], s.masks[:0]
	l.unring(s, k)
	l.slots.Free(i)
}

// store is close's path for a run that may not fit the last page's tail:
// it encodes the run apart, grows the store and copies the run to its
// end, across a page boundary if it must, then points the tail past it.
func (l *Ledger) store(s *slot) {
	if bound := s.maxSize(); cap(l.scratch) < bound {
		l.scratch = make([]byte, bound) //e3:alloc once per longest run that does not fit a tail
	}
	run := l.scratch[:s.encode(l.scratch[:cap(l.scratch)])]
	start := int(l.end)
	if int64(start)+int64(len(run)) > maxEntries {
		panic("audit: run store full")
	}
	l.end += int32(len(run))
	p, o := store.Locate(start)
	for {
		if p == l.runs.NumPages() {
			l.runs.Grow()
		}
		run = run[copy(l.runs.Page(p)[o:], run):]
		if len(run) == 0 {
			break
		}
		p, o = p+1, 0
	}
	l.tail = nil
	if p, o := store.Locate(int(l.end)); p < l.runs.NumPages() {
		l.tail = l.runs.Page(p)[o:]
	}
}

// unring frees s's ring position, held under key k, if it holds one.
func (l *Ledger) unring(s *slot, k int64) {
	if s.ringed {
		l.ring.Remove(k)
		s.ringed = false
	}
}

// decode appends the events of the run at offset run to dst. The run's
// ops end at its terminal, so they count its events.
func (l *Ledger) decode(dst []ev, run int32) []ev {
	r := l.reader(run)
	masks := r
	for r.next()&moreMasks != 0 { // skip to the ops
	}
	first := len(dst)
	for {
		op := r.op()
		dst = append(dst, ev{op: op})
		if opKind(op).terminal() {
			break
		}
	}
	var at uint64
	var m byte
	stored := false
	for j := range dst[first:] {
		if j%maskEvents == 0 {
			m = masks.next()
		}
		if m&1 == 0 {
			if stored {
				at += r.varint()
			} else {
				at, stored = r.le(8), true
			}
		}
		m >>= 1
		dst[first+j].at = at
	}
	return dst
}

// chain returns the events of the sample at e, from its open slot or its
// run, decoded into *buf.
func (l *Ledger) chain(buf *[]ev, e entry) []ev {
	if e.loc < 0 {
		*buf = l.slots.At(^e.loc).events((*buf)[:0])
	} else {
		*buf = l.decode((*buf)[:0], e.loc)
	}
	return *buf
}

// pack returns the op word of an event of kind k with operands o,
// spilling o to l.wide when it does not fit: a negative operand, a
// dispatch to a stage past 12 bits or an instance past 16, or any other
// operand past 28 bits.
func (l *Ledger) pack(k Kind, o operands) uint32 {
	if o == (operands{}) {
		return uint32(k)
	}
	var v uint32
	fits := true
	switch k {
	case KindDispatched:
		st, in := uint32(o.a), uint32(o.b)
		v = st&(1<<loStage-1) | in&(1<<loInstance-1)<<loStage |
			st>>loStage<<(loStage+loInstance) | in>>loInstance<<(stageBits+loInstance)
		fits = st <= stageMask && in < 1<<(operandBits-stageBits)
	case KindMerged, KindCompleted, KindDropped:
		v = uint32(o.a)
		fits = v < 1<<operandBits
	}
	if !fits {
		if len(l.wide) == 1<<operandBits {
			panic("audit: too many wide operands")
		}
		v = uint32(len(l.wide))
		l.wide = append(l.wide, o)
		return uint32(k) | wideFlag | v<<operandShift
	}
	return uint32(k) | v<<operandShift
}

// unpack returns an op word's operands.
func (l *Ledger) unpack(op uint32) operands {
	v := op &^ wideFlag >> operandShift
	switch {
	case op&wideFlag != 0:
		return l.wide[v]
	case opKind(op) == KindDispatched:
		st := v&(1<<loStage-1) | v>>(loStage+loInstance)&(stageMask>>loStage)<<loStage
		in := v>>loStage&(1<<loInstance-1) | v>>(stageBits+loInstance)<<loInstance
		return operands{int32(st), int32(in)}
	}
	return operands{a: int32(v)}
}

// record records an event of sample id in detail if its id is tracked;
// the exported methods have counted it in the population totals. The
// one-event methods stay small enough to inline into their callers, so
// an untracked id costs the caller this one call.
//
//e3:hotpath runs once per lifecycle event; sampled mode skips an untracked id in O(1) and must not allocate off the detail path
func (l *Ledger) record(id int64, kind Kind, at float64, o operands) {
	if l.tracks(id) {
		l.track(id, l.key(id), kind, at, l.pack(kind, o), o)
	}
}

// batch records an event of kind with operands o for each id in ids[0],
// ids[step], ids[2·step], …: the members of a dispatch or merge, which
// counts no total. Every member's op word is the same, so it is packed
// once, at the first tracked member.
//
//e3:hotpath runs once per dispatch or merge record; sampled mode skips an untracked member in O(1)
func (l *Ledger) batch(kind Kind, ids []uint64, step int, at float64, o operands) {
	if l == nil {
		return
	}
	var op uint32
	packed := false
	for j := 0; j < len(ids); j += step {
		id := int64(ids[j])
		if !l.tracks(id) {
			continue
		}
		if !packed {
			op, packed = l.pack(kind, o), true
		}
		l.track(id, l.key(id), kind, at, op, o)
	}
}

// track records an event of a tracked sample, whose op word is op, and
// checks it against the sample's previous one. An open sample that has
// broken no invariant is found through the ring; a first arrival, which
// normally opens its sample, goes straight to the index.
func (l *Ledger) track(id, k int64, kind Kind, at float64, op uint32, o operands) {
	var s *slot
	if kind != KindArrived {
		if i, ok := l.ring.Get(k); ok {
			if s = l.slots.At(i); s.id != id {
				s = nil
			}
		}
	}
	if s == nil {
		s = l.find(id, k)
	}
	// A terminal in a slot is a bad sample's, so an event after it needs
	// no check of its own.
	if len(s.ops) > 0 && (at < math.Float64frombits(s.at) || kind == KindArrived) {
		s.bad = true
	}
	switch {
	case kind == KindDispatched:
		if o.a < s.last {
			s.bad = true
		}
		if s.last >= 0 && o.a > s.last {
			l.flow(s.last).Forwarded++
		}
		l.flow(o.a).In++
		s.last = o.a
	case kind == KindDropped && !l.known[o.a]:
		s.bad = true
	}
	s.push(math.Float64bits(at), op)
	switch {
	case s.bad:
		l.unring(s, k)
	case kind.terminal():
		l.tallyTerminal(kind, s.last, 1)
		l.clean++
		l.close(s, k)
	}
}

// tallyTerminal adds delta to stage's Completed or Dropped count, as kind
// says; a terminal before any dispatch belongs to no stage.
func (l *Ledger) tallyTerminal(kind Kind, stage, delta int32) {
	if stage < 0 {
		return
	}
	if f := l.flow(stage); kind == KindCompleted {
		f.Completed += int(delta)
	} else {
		f.Dropped += int(delta)
	}
}

// flow returns stage's running tally, creating it on first use.
func (l *Ledger) flow(stage int32) *StageFlow {
	if stage >= 0 && int(stage) < len(l.flows) {
		return &l.flows[stage]
	}
	if stage >= 0 && stage < denseStages {
		for len(l.flows) <= int(stage) {
			l.flows = append(l.flows, StageFlow{})
		}
		return &l.flows[stage]
	}
	f := l.farFlows[stage]
	if f == nil {
		if l.farFlows == nil {
			l.farFlows = make(map[int32]*StageFlow) //e3:alloc once per ledger, at its first stage outside the dense range
		}
		f = &StageFlow{} //e3:alloc once per stage outside the dense range
		l.farFlows[stage] = f
	}
	return f
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
	l.known = append(l.known, knownReason(reason))
	l.byReasonTotal = append(l.byReasonTotal, 0)
	return uint16(len(l.reasons) - 1)
}

// Arrived records a sample minted by the generator at virtual time at.
func (l *Ledger) Arrived(id int64, at float64) {
	if l == nil {
		return
	}
	l.arrivedTotal++
	l.record(id, KindArrived, at, operands{})
}

// Queued records admission into a batcher queue.
func (l *Ledger) Queued(id int64, at float64) {
	if l == nil {
		return
	}
	l.record(id, KindQueued, at, operands{})
}

// DispatchedIDs records the hand-off of a batch to stage's instance (a
// device index): one dispatch for each id in ids[0], ids[step],
// ids[2·step], …, as a boundary record lays its members out.
func (l *Ledger) DispatchedIDs(ids []uint64, step int, at float64, stage, instance int) {
	l.batch(KindDispatched, ids, step, at, operands{int32(stage), int32(instance)})
}

// MergedIDs records the entry of each id in ids into stage's survivor
// merge queue.
func (l *Ledger) MergedIDs(ids []uint64, at float64, stage int) {
	l.batch(KindMerged, ids, 1, at, operands{a: int32(stage)})
}

// Completed records execution finishing with the given 1-based exit layer.
func (l *Ledger) Completed(id int64, at float64, exitLayer int) {
	if l == nil {
		return
	}
	l.completedTotal++
	l.record(id, KindCompleted, at, operands{a: int32(exitLayer)})
}

// Dropped records the sample being shed for the given reason.
func (l *Ledger) Dropped(id int64, at float64, reason Reason) {
	if l == nil {
		return
	}
	// A run sheds in long streaks of one reason: try the last code
	// before scanning the table.
	code := l.lastReason
	if int(code) >= len(l.reasons) || l.reasons[code] != reason {
		code = l.intern(reason)
		l.lastReason = code
	}
	l.droppedTotal++
	l.byReasonTotal[code]++
	// Dropped is too large to inline, so it tests the id itself rather
	// than pay a second call for an untracked one.
	if l.tracks(id) {
		l.record(id, KindDropped, at, operands{a: int32(code)})
	}
}

// Samples reports how many distinct sample IDs have events.
func (l *Ledger) Samples() int {
	if l == nil {
		return 0
	}
	return l.samples
}

// RetainedBytes reports the bytes of the pages the ledger's run store and
// indexes hold (nil = 0): what it keeps for its samples once their slots
// are free.
func (l *Ledger) RetainedBytes() int {
	if l == nil {
		return 0
	}
	return l.runs.Len() + entryBytes*(l.dense.Len()+l.spill.Len())
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
	if !l.tracks(id) {
		return dst
	}
	e := l.lookup(id, l.key(id))
	if e == nil {
		return dst
	}
	var buf []ev
	return l.appendChain(dst, l.chain(&buf, *e))
}

// appendChain appends evs, expanded, to dst.
func (l *Ledger) appendChain(dst []Event, evs []ev) []Event {
	for _, v := range evs {
		e := Event{Kind: opKind(v.op), At: math.Float64frombits(v.at)}
		switch o := l.unpack(v.op); e.Kind {
		case KindDispatched:
			e.Stage, e.Instance = int(o.a), int(o.b)
		case KindMerged:
			e.Stage = int(o.a)
		case KindCompleted:
			e.ExitLayer = int(o.a)
		case KindDropped:
			e.Reason = l.reasons[o.a]
		}
		dst = append(dst, e)
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
		fmt.Fprintf(&b, " [sampled: every %s of %d audited in detail, totals exact]", ordinal(r.Stride), r.Tracked)
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

// ordinal renders n ≥ 0 as an English ordinal: 1st, 2nd, 3rd, 4th, 11th,
// 12th, 13th, 21st.
func ordinal(n int64) string {
	suffix := "th"
	if n%100 < 11 || n%100 > 13 {
		switch n % 10 {
		case 1:
			suffix = "st"
		case 2:
			suffix = "nd"
		case 3:
			suffix = "rd"
		}
	}
	return strconv.FormatInt(n, 10) + suffix
}

func knownReason(reason Reason) bool {
	switch reason {
	case ReasonAdmission, ReasonStaleShed, ReasonSLAFlush:
		return true
	}
	return false
}

// Verify checks the conservation invariants and returns a report with
// per-stage tallies. The per-stage tallies and per-sample checks ran as
// events were recorded, so Verify reads the finished tallies and walks
// the event chains only of samples that did not end in a clean terminal,
// rendering their violations. A nil ledger verifies vacuously (an empty,
// OK report).
func (l *Ledger) Verify() *Report {
	r := &Report{ByReason: make(map[Reason]int), Stages: make(map[int]*StageFlow), Stride: 1}
	if l == nil {
		return r
	}
	r.Stride = l.stride
	r.Tracked = l.samples
	if l.stride > 1 {
		// Sampled mode: population totals come from the exact O(1)
		// counters; per-sample invariants below cover the tracked subset.
		r.Samples = l.arrivedTotal
	} else {
		r.Samples = l.samples
	}
	r.Completed = l.completedTotal
	r.Dropped = l.droppedTotal
	r.ByReason = l.DropBreakdown()
	// Stages keys every stage a tracked sample was dispatched into: those
	// are exactly the tallies with In > 0.
	flows := slices.Clone(l.flows)
	for si := range flows {
		if flows[si].In > 0 {
			r.Stages[si] = &flows[si]
		}
	}
	for si, f := range l.farFlows {
		g := *f
		r.Stages[int(si)] = &g
	}
	if l.clean != l.samples {
		// The samples that did not end cleanly are exactly those still
		// in slots.
		open := make([]*slot, 0, l.slots.InUse())
		for i := range int32(l.slots.Len()) {
			if s := l.slots.At(i); len(s.ops) > 0 {
				open = append(open, s)
			}
		}
		slices.SortFunc(open, func(a, b *slot) int { return cmp.Compare(a.e.rank, b.e.rank) })
		var evs []Event
		var buf []ev
		for _, s := range open {
			buf = s.events(buf[:0])
			evs = l.appendChain(evs[:0], buf)
			r.checkSample(s.id, evs)
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

// firstSeen returns every tracked sample's id and entry in first-seen
// order, placing each at its rank.
func (l *Ledger) firstSeen() ([]int64, []entry) {
	ids := make([]int64, l.samples)
	es := make([]entry, l.samples)
	k := int64(0)
	for p := range l.dense.NumPages() {
		for _, e := range l.dense.Page(p) {
			if e.loc != 0 {
				ids[e.rank], es[e.rank] = k*l.stride, e
			}
			k++
		}
	}
	//e3:unordered each id lands at its own rank
	for id, j := range l.sparse {
		e := *l.spill.At(int(j))
		ids[e.rank], es[e.rank] = id, e
	}
	return ids, es
}

// checkSample reports one sample's invariant violations and attributes
// its first terminal to the last stage it was dispatched into. Its
// dispatches are already in r.Stages' In and Forwarded tallies.
func (r *Report) checkSample(id int64, evs []Event) {
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
	if terminals == 0 || lastStage < 0 {
		return
	}
	// Attribute the first terminal to the last dispatched stage.
	// (Population-level Completed/Dropped/ByReason totals come from the
	// O(1) counters, exact in both modes; the stage tallies cover the
	// detail-tracked subset.)
	for _, e := range evs {
		if e.Kind == KindCompleted {
			r.Stages[lastStage].Completed++
			return
		}
		if e.Kind == KindDropped {
			r.Stages[lastStage].Dropped++
			return
		}
	}
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
	b.Grow(l.DigestSize())
	l.WriteDigest(&b)
	return b.String()
}

// DigestSize estimates the length of the ledger's digest (nil = 0), so a
// caller writing several digests into one builder can size it once.
func (l *Ledger) DigestSize() int {
	if l == nil {
		return 0
	}
	// A run takes about 6 bytes per event, and an event renders in about
	// 30 bytes.
	return 64 + 5*int(l.end) + 8*l.samples
}

// WriteDigest writes the ledger's digest to b (nil writes nothing).
func (l *Ledger) WriteDigest(b *strings.Builder) {
	if l == nil {
		return
	}
	// Each line renders with strconv into one reused buffer; 'g' with the
	// shortest precision prints a float64 exactly as %v does.
	line := make([]byte, 0, 256)
	line = append(line, "totals arrived="...)
	line = strconv.AppendInt(line, int64(l.arrivedTotal), 10)
	line = append(line, " completed="...)
	line = strconv.AppendInt(line, int64(l.completedTotal), 10)
	line = append(line, " dropped="...)
	line = strconv.AppendInt(line, int64(l.droppedTotal), 10)
	byReason := l.DropBreakdown()
	reasons := make([]string, 0, len(byReason))
	for reason := range byReason {
		reasons = append(reasons, string(reason))
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		line = append(line, ' ')
		line = append(line, reason...)
		line = append(line, '=')
		line = strconv.AppendInt(line, int64(byReason[Reason(reason)]), 10)
	}
	b.Write(append(line, '\n'))
	ids, es := l.firstSeen()
	var buf []ev
	for i, id := range ids {
		line = strconv.AppendInt(line[:0], id, 10)
		line = append(line, ':')
		for _, v := range l.chain(&buf, es[i]) {
			kind := opKind(v.op)
			line = append(line, ' ')
			line = append(line, kind.String()...)
			line = append(line, '@')
			line = strconv.AppendFloat(line, math.Float64frombits(v.at), 'g', -1, 64)
			switch o := l.unpack(v.op); kind {
			case KindDispatched:
				line = append(line, "(s"...)
				line = strconv.AppendInt(line, int64(o.a), 10)
				line = append(line, ",i"...)
				line = strconv.AppendInt(line, int64(o.b), 10)
				line = append(line, ')')
			case KindMerged:
				line = append(line, "(s"...)
				line = strconv.AppendInt(line, int64(o.a), 10)
				line = append(line, ')')
			case KindCompleted:
				line = append(line, "(x"...)
				line = strconv.AppendInt(line, int64(o.a), 10)
				line = append(line, ')')
			case KindDropped:
				line = append(line, '(')
				line = append(line, l.reasons[o.a]...)
				line = append(line, ')')
			}
		}
		b.Write(append(line, '\n'))
	}
}
