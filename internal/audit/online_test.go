package audit

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"

	"e3/internal/store"
)

// A ledger stream is encoded as bytes so the differential test and the
// fuzz target share one event alphabet. The first byte picks the stride;
// each following 4-byte op is one event: id, kind, operand and time. The
// clock advances one tick per op unless the time byte's low bit is set,
// so events may share a timestamp; the rest of the byte, signed, offsets
// the event from the clock, so events may run backwards, except that its
// top len(streamOddTimes) values pick one of those times instead.
var (
	streamStrides = []int64{1, 3}
	// streamIDs mixes dense ids, negative ids, ids far beyond the dense
	// range, and a ladder of ids (3000 up to 90_000) that, first seen in
	// rising order, grows the dense index past its first page at either
	// stride; at stride 3 only the multiples of 3 are tracked. genStream
	// first sees ids in random order, so low ids often follow high ones.
	streamIDs = []int64{
		0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
		16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31,
		-1, -2, -3, -6, -9, -3000, 1 << 40, 3 << 40, 3<<40 + 1, 3 << 41,
		9 << 50, math.MaxInt64 - 1, math.MinInt64 + 2, 99_999, 100_002, 3 << 20,
		3000, 9999, 30_000, 90_000,
	}
	// streamStages covers the dense tally range, negative stages, stages
	// past it, the widest stage a dispatch packs and the one past it, and
	// the int32 extremes the stage encoding wraps at.
	streamStages = []int{0, 1, 2, 3, -1, -7, 1023, 1024, 4095, 4096, math.MaxInt32, math.MinInt32}
	// streamInstances and streamExits add the operands a record cannot
	// pack next to ordinary ones: a negative instance or exit layer, an
	// instance past 16 bits and an exit layer past 28.
	streamInstances = []int{0, 1, 2, 3, 4, 65535, 65536, -1}
	streamExits     = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1<<28 - 1, 1 << 28, -1}
	streamReasons   = []Reason{ReasonAdmission, ReasonStaleShed, ReasonSLAFlush, "bogus", ""}
	// streamOddTimes are times whose bits stress the run layout: both
	// zeros, the least and the greatest subnormal, huge values, infinity
	// and NaN.
	streamOddTimes = []float64{0, math.Copysign(0, -1), 5e-324, math.Float64frombits(1<<52 - 1), 1e300, -1e300, math.Inf(1), math.NaN()}
)

// opBytes is the size of one encoded event.
const opBytes = 4

// replayStream decodes data into a fresh ledger and returns it with its
// tracked ids in first-seen order, kept apart from the ledger. Any byte
// string decodes: every field is taken modulo its alphabet. A dispatch's
// operand byte picks the stage and, divided by the stage count, the
// instance. It calls check after every event whose kind byte has its
// high bit set.
func replayStream(data []byte, check func(l *Ledger, ids []int64)) (*Ledger, []int64) {
	if len(data) == 0 {
		return NewLedger(), nil
	}
	return replayInto(NewSampledLedger(streamStrides[int(data[0])%len(streamStrides)]), data[1:], check)
}

// replayInto records a stream's ops, the bytes after its stride byte,
// into l, as replayStream does.
func replayInto(l *Ledger, ops []byte, check func(l *Ledger, ids []int64)) (*Ledger, []int64) {
	seen := newFirstSeen(l.Stride())
	clock := 0.0
	for op := ops; len(op) >= opBytes; op = op[opBytes:] {
		id := streamIDs[int(op[0])%len(streamIDs)]
		operand := int(op[2])
		if op[3]&1 == 0 {
			clock += 0.001
		}
		at := clock + float64(int8(op[3])>>1)*0.01
		if odd := int(int8(op[3])>>1) - (64 - len(streamOddTimes)); odd >= 0 {
			at = streamOddTimes[odd]
		}
		seen.note(id)
		switch Kind(op[1]&0x7f) % 6 {
		case KindArrived:
			l.Arrived(id, at)
		case KindQueued:
			l.Queued(id, at)
		case KindDispatched:
			dispatched(l, id, at, streamStages[operand%len(streamStages)],
				streamInstances[operand/len(streamStages)%len(streamInstances)])
		case KindMerged:
			merged(l, id, at, streamStages[operand%len(streamStages)])
		case KindCompleted:
			l.Completed(id, at, streamExits[operand%len(streamExits)])
		case KindDropped:
			l.Dropped(id, at, streamReasons[operand%len(streamReasons)])
		}
		if check != nil && op[1]&0x80 != 0 {
			check(l, seen.ids)
		}
	}
	return l, seen.ids
}

// genStream writes an encoded stream of mostly well-formed lifecycles
// with random faults, each drawn with probability fault: backward
// timestamps, early or repeated arrivals, stage regressions, odd stages,
// unknown reasons, missing terminals and events after a terminal.
func genStream(rng *rand.Rand, fault float64) []byte {
	ids := rng.Perm(len(streamIDs))
	lives := make([][]byte, 1+rng.Intn(len(streamIDs)))
	for s := range lives {
		id := ids[s]
		if rng.Float64() < fault {
			id = rng.Intn(len(streamIDs)) // may repeat another sample's id
		}
		hops := rng.Intn(3)
		st := rng.Intn(4 - hops) // ordinary stages 0..3
		if rng.Float64() < fault {
			st = rng.Intn(len(streamStages) - hops)
		}
		inst := rng.Intn(4) // ordinary instances 0..3
		if rng.Float64() < fault {
			inst = rng.Intn(len(streamInstances))
		}
		var life []byte
		add := func(kind, operand int) {
			step := int8(rng.Intn(2)) // the next tick, or a tie
			if rng.Float64() < fault {
				step = int8(-1-rng.Intn(60)) << 1 // backward in time
			}
			if rng.Float64() < fault {
				kind = rng.Intn(6)
			}
			life = append(life, byte(id), byte(kind), byte(operand), byte(step))
		}
		add(int(KindArrived), 0)
		add(int(KindQueued), 0)
		for ; hops >= 0; hops-- {
			add(int(KindDispatched), st+len(streamStages)*inst)
			if hops > 0 {
				add(int(KindMerged), st+1)
				st++
			}
		}
		if rng.Float64() >= fault/2 { // sometimes never terminates
			if rng.Intn(4) == 0 {
				reason := rng.Intn(3)
				if rng.Float64() < fault {
					reason = rng.Intn(len(streamReasons))
				}
				add(int(KindDropped), reason)
			} else {
				exit := 1 + rng.Intn(12)
				if rng.Float64() < fault {
					exit = rng.Intn(len(streamExits))
				}
				add(int(KindCompleted), exit)
			}
		}
		for rng.Float64() < fault/2 { // events after the terminal
			add(rng.Intn(6), rng.Intn(256))
		}
		lives[s] = life
	}
	// Interleave the lifecycles, keeping each one's order, and mark some
	// ops as points to verify mid-stream.
	out := []byte{byte(rng.Intn(len(streamStrides)))}
	for {
		live := 0
		for _, life := range lives {
			if len(life) > 0 {
				live++
			}
		}
		if live == 0 {
			return out
		}
		pick := rng.Intn(live)
		for s, life := range lives {
			if len(life) == 0 {
				continue
			}
			if pick--; pick < 0 {
				op := append([]byte(nil), life[:opBytes]...)
				if rng.Intn(128) == 0 {
					op[1] |= 0x80
				}
				out = append(out, op...)
				lives[s] = life[opBytes:]
				break
			}
		}
	}
}

// diffSampled replays a stream's ops into an exhaustive ledger and a
// stride-7 one, and fails t unless the sampled ledger returns the
// exhaustive one's events, bit for bit, for every id it tracks, and none
// for any other id.
func diffSampled(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	ex, ids := replayInto(NewLedger(), data[1:], nil)
	sampled, _ := replayInto(NewSampledLedger(7), data[1:], nil)
	for _, id := range ids {
		want := ex.Events(id)
		if id%7 != 0 {
			want = nil
		}
		if got := sampled.Events(id); !sameEvents(got, want) {
			t.Fatalf("stride 7: Events(%d) = %+v, exhaustive %+v", id, got, want)
		}
	}
}

// diffVerify fails t unless Verify and the full-walk refVerify agree on
// every report field, and Digest matches its fmt rendering. ids lists
// l's tracked ids in first-seen order.
func diffVerify(t *testing.T, l *Ledger, ids []int64) {
	t.Helper()
	if got, want := l.Digest(), refDigest(l, ids); got != want {
		t.Fatalf("Digest differs from its fmt rendering:\n%s\n--- vs ---\n%s", got, want)
	}
	got, want := l.Verify(), refVerify(l, ids)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Verify disagrees with the full walk:\n--- Verify:\n%s\nstages %v\n--- full walk:\n%s\nstages %v",
			got, stageFlows(got), want, stageFlows(want))
	}
	if got.String() != want.String() {
		t.Fatalf("String() differs:\n%s\n--- vs ---\n%s", got, want)
	}
}

func stageFlows(r *Report) map[int]StageFlow {
	out := make(map[int]StageFlow, len(r.Stages))
	for si, f := range r.Stages {
		out[si] = *f
	}
	return out
}

// differentialStreams returns the seeded streams the differential test
// replays and the fuzz target seeds its corpus from.
func differentialStreams(n int) [][]byte {
	rng := rand.New(rand.NewSource(20))
	out := make([][]byte, n)
	for i := range out {
		out[i] = genStream(rng, []float64{0, 0.02, 0.1, 0.4}[i%4])
	}
	return out
}

// TestVerifyMatchesFullWalk compares the online Verify with the full
// walk it replaced on thousands of random streams, at the end of each
// stream and at random points inside it.
func TestVerifyMatchesFullWalk(t *testing.T) {
	n := 3000
	if testing.Short() {
		n = 500
	}
	var truncated, failing, passing int
	for _, data := range differentialStreams(n) {
		l, ids := replayStream(data, func(l *Ledger, ids []int64) { diffVerify(t, l, ids) })
		diffVerify(t, l, ids)
		diffSampled(t, data)
		switch r := l.Verify(); {
		case r.truncated > 0:
			truncated++
		case !r.OK():
			failing++
		default:
			passing++
		}
	}
	// The generator must reach every kind of outcome, or the comparison
	// proves little.
	t.Logf("streams: %d truncated, %d failing, %d passing", truncated, failing, passing)
	if truncated == 0 || failing == 0 || passing == 0 {
		t.Fatalf("streams: %d truncated, %d failing, %d passing; want each > 0", truncated, failing, passing)
	}
}

// FuzzLedgerVerify checks Verify against the full walk on arbitrary
// streams over the same event alphabet, and a stride-7 ledger's events
// against an exhaustive one's.
func FuzzLedgerVerify(f *testing.F) {
	for _, data := range differentialStreams(64) {
		f.Add(data)
	}
	for _, data := range storageStreams() {
		f.Add(data)
	}
	for _, data := range indexStreams() {
		f.Add(data)
	}
	for _, data := range layoutStreams() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, ids := replayStream(data, func(l *Ledger, ids []int64) { diffVerify(t, l, ids) })
		diffVerify(t, l, ids)
		diffSampled(t, data)
	})
}

// layoutStreams returns encoded streams aimed at the run layout, at
// either stride, on ids that strides 3 and 7 both track: times of +0 and
// −0, subnormal times, a jump from 0 to 1e300, infinity and NaN; equal
// times across more than 7 and more than 31 events; ops that take an
// escape byte and ops that spill wide; and events after a clean terminal,
// which decode the run back into a slot.
func layoutStreams() [][]byte {
	// odd returns the time byte of streamOddTimes[i]; tick and tie are
	// ordinary ones.
	odd := func(i int) byte { return byte(64-len(streamOddTimes)+i) << 1 }
	const tick, tie = 0, 1
	// A dispatch operand picks streamStages[b%12] and
	// streamInstances[b/12%8]; a completion's picks streamExits[b%16].
	const (
		stage1023     = 6
		stage4096     = 9 // wide
		instance65535 = 5 * 12
		exitEscape    = 13 // 1<<28 - 1
		exitWide      = 14 // 1 << 28
	)
	var out [][]byte
	for stride := byte(0); stride < byte(len(streamStrides)); stride++ {
		zeros, ties, reopen := []byte{stride}, []byte{stride}, []byte{stride}
		op := func(dst []byte, id int64, kind Kind, operand, at byte) []byte {
			return append(dst, streamID(id), byte(kind), operand, at)
		}
		// Both zeros, subnormals and escaped ops on one sample; a jump from
		// +0 to 1e300, a wide dispatch and a wide exit at NaN on another.
		zeros = op(zeros, 0, KindArrived, 0, odd(0))
		zeros = op(zeros, 0, KindQueued, 0, odd(1))
		zeros = op(zeros, 0, KindDispatched, instance65535, odd(2))
		zeros = op(zeros, 0, KindMerged, stage1023, odd(3))
		zeros = op(zeros, 0, KindDispatched, stage1023, odd(3))
		zeros = op(zeros, 0, KindCompleted, exitEscape, odd(6))
		zeros = op(zeros, 21, KindArrived, 0, odd(0))
		zeros = op(zeros, 21, KindQueued, 0, odd(4))
		zeros = op(zeros, 21, KindDispatched, stage4096, odd(4))
		zeros = op(zeros, 21, KindCompleted|0x80, exitWide, odd(7))
		// One time across 9 events of one sample, and across 33 of another.
		for _, c := range []struct {
			id     int64
			events int
		}{{0, 9}, {21, 33}} {
			ties = op(ties, c.id, KindArrived, 0, tick)
			for range c.events - 2 {
				ties = op(ties, c.id, KindMerged, 0, tie)
			}
			ties = op(ties, c.id, KindCompleted|0x80, 3, tie)
		}
		// Events after clean terminals, at odd times and with escaped ops.
		reopen = op(reopen, 21, KindArrived, 0, odd(0))
		reopen = op(reopen, 21, KindDispatched, stage1023, odd(4))
		reopen = op(reopen, 21, KindCompleted, exitEscape, odd(4))
		reopen = op(reopen, 21, KindMerged|0x80, stage1023, odd(1))
		reopen = op(reopen, 21, KindCompleted, exitWide, odd(5))
		reopen = op(reopen, 0, KindArrived, 0, odd(2))
		reopen = op(reopen, 0, KindCompleted, 3, odd(3))
		reopen = op(reopen, 0, KindDispatched|0x80, instance65535, odd(6))
		out = append(out, zeros, ties, reopen)
	}
	return out
}

// TestLayoutStreams replays the fuzz target's layout-aimed seeds.
func TestLayoutStreams(t *testing.T) {
	for _, data := range layoutStreams() {
		l, ids := replayStream(data, func(l *Ledger, ids []int64) { diffVerify(t, l, ids) })
		diffVerify(t, l, ids)
		diffSampled(t, data)
	}
}

// storageStreams returns encoded streams aimed at the run store: at
// either stride, a sample whose events all share one time, a chain
// longer than one mask word, and samples reopened after a clean
// terminal, one of them a long chain.
func storageStreams() [][]byte {
	var out [][]byte
	for stride := byte(0); stride < byte(len(streamStrides)); stride++ {
		same, long, reopen := []byte{stride}, []byte{stride}, []byte{stride}
		// op encodes one event of id; a tie keeps the clock.
		op := func(dst []byte, id, kind, operand byte, tie bool) []byte {
			var at byte
			if tie {
				at = 1
			}
			return append(dst, id, kind, operand, at)
		}
		lifecycle := func(dst []byte, id byte, tie bool, merges int) []byte {
			dst = op(dst, id, byte(KindArrived), 0, false)
			dst = op(dst, id, byte(KindQueued), 0, true)
			dst = op(dst, id, byte(KindDispatched), 0, tie)
			for range merges {
				dst = op(dst, id, byte(KindMerged), 0, tie)
			}
			return op(dst, id, byte(KindCompleted), 3, tie)
		}
		same = lifecycle(same, 3, true, 2)
		same = lifecycle(same, 6, false, 1)
		long = lifecycle(long, 3, false, 40)
		long = lifecycle(long, 6, true, 70)
		reopen = lifecycle(reopen, 3, false, 1)
		reopen = lifecycle(reopen, 6, true, 35)
		reopen = op(reopen, 3, byte(KindMerged), 1, true)
		reopen = op(reopen, 6, byte(KindDispatched), 1, false)
		reopen = op(reopen, 3, byte(KindCompleted)|0x80, 2, false)
		out = append(out, same, long, reopen)
	}
	return out
}

// streamID returns id's index in streamIDs, the id byte of an encoded op.
func streamID(id int64) byte {
	i := slices.Index(streamIDs, id)
	if i < 0 {
		panic("audit: id not in streamIDs")
	}
	return byte(i)
}

// indexStreams returns encoded streams aimed at the open-sample ring, at
// either stride. In the first, every dense id is open at once, so ids
// whose keys share a position with an open one (the far multiples of
// 3<<20, 90_000 beside 16 at stride 1) first grow the ring, then, once it
// spans ringSpan positions per open slot, take the position from the open
// id; negative and far ids, some in the sparse map, open beside them. An
// open sample and a closed one each get a second arrival, and samples
// reopen after a clean terminal and take more events. In the second, two
// lone samples share a position, so the later one evicts the first from
// a ring still at its first size.
func indexStreams() [][]byte {
	var out [][]byte
	// op encodes one event of id; every fifth event ticks the clock.
	op := func(dst []byte, id int64, kind Kind, operand byte) []byte {
		at := byte(1)
		if len(dst)%(5*opBytes) == 1 {
			at = 0
		}
		return append(dst, streamID(id), byte(kind), operand, at)
	}
	far := []int64{-1, -3000, 1 << 40, 3 << 40, 3 << 41, 9 << 50, math.MaxInt64 - 1, math.MinInt64 + 2, 3 << 20, 90_000, 9999}
	var all []int64
	for id := int64(0); id < 32; id++ {
		all = append(all, id)
	}
	all = append(all, far...)
	for stride := byte(0); stride < byte(len(streamStrides)); stride++ {
		crowd := []byte{stride}
		for _, id := range all {
			crowd = op(crowd, id, KindArrived, 0)
			crowd = op(crowd, id, KindQueued, 0)
		}
		crowd = op(crowd, 6, KindArrived|0x80, 0) // a second arrival while open
		for _, id := range all {
			crowd = op(crowd, id, KindDispatched, 0)
		}
		for i := len(all) - 1; i >= 0; i-- {
			crowd = op(crowd, all[i], KindCompleted, 3)
		}
		crowd = op(crowd, 9, KindArrived|0x80, 0) // a second arrival after a clean terminal
		crowd = op(crowd, 3<<40, KindMerged, 1)   // a reopened sample's events
		crowd = op(crowd, 3<<40, KindDispatched, 1)
		crowd = op(crowd, 3<<40, KindCompleted|0x80, 4)
		for _, id := range []int64{3000, 30_000} { // new samples in freed slots
			crowd = op(crowd, id, KindArrived, 0)
			crowd = op(crowd, id, KindDispatched, 0)
			crowd = op(crowd, id, KindCompleted, 3)
		}
		pair := []byte{stride}
		pair = op(pair, 0, KindArrived, 0)
		pair = op(pair, 3<<20, KindArrived, 0)
		pair = op(pair, 0, KindQueued|0x80, 0)
		pair = op(pair, 3<<20, KindQueued, 0)
		pair = op(pair, 0, KindCompleted, 3)
		pair = op(pair, 3<<20, KindDropped, 0)
		out = append(out, crowd, pair)
	}
	return out
}

// TestIndexStreams replays the fuzz target's ring-aimed seeds. It checks
// that no bad sample keeps a ring position, and that the seeds reach the
// ring's eviction: an open sample that has broken no invariant, yet which
// the ring no longer points at.
func TestIndexStreams(t *testing.T) {
	evicted := false
	for _, data := range indexStreams() {
		l, ids := replayStream(data, func(l *Ledger, ids []int64) {
			diffVerify(t, l, ids)
			for i := range int32(l.slots.Len()) {
				s := l.slots.At(i)
				if s.bad && s.ringed {
					t.Fatalf("bad sample %d keeps its ring position", s.id)
				}
				if len(s.ops) > 0 && !s.bad && !s.ringed {
					evicted = true
				}
			}
		})
		diffVerify(t, l, ids)
	}
	if !evicted {
		t.Fatal("no stream evicted an open sample from the ring")
	}
}

// TestStorageStreams replays the fuzz target's store-aimed seeds.
func TestStorageStreams(t *testing.T) {
	for _, data := range storageStreams() {
		l, ids := replayStream(data, func(l *Ledger, ids []int64) { diffVerify(t, l, ids) })
		diffVerify(t, l, ids)
	}
}

// TestDigestFloatsMatchFmt checks Digest renders odd timestamps exactly
// as fmt's %v did.
func TestDigestFloatsMatchFmt(t *testing.T) {
	l := NewLedger()
	for i, at := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324,
		math.MaxFloat64, 1e20, 1e21, 1e-4, 1e-5, 123456789.125, 0.1 + 0.2, -2.5e-7,
	} {
		l.Arrived(int64(i), at)
		dispatched(l, int64(i), at, i-3, i)
		l.Completed(int64(i), at, i)
	}
	ids := idRange(0, 13)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		merged(l, int64(-i), math.Float64frombits(rng.Uint64()), i)
		if i > 0 {
			ids = append(ids, int64(-i))
		}
	}
	diffVerify(t, l, ids)
}

// TestFirstSeenOrder checks Digest lines and Verify's violations follow
// first-seen order, not id order: low ids after high ones, and sparse
// ids among dense ones that, at stride 1, reach past the index's first
// page.
func TestFirstSeenOrder(t *testing.T) {
	order := []int64{50, 3000, 10_000, 5, 30_000, 70_000, -5, 1 << 40, 0, 20_000, 10, 15}
	for _, stride := range []int64{1, 5} {
		l := NewSampledLedger(stride)
		seen := newFirstSeen(stride)
		for i, id := range order {
			seen.note(id)
			l.Arrived(id, float64(i))
			l.Queued(id, float64(i))
		}
		for i, id := range order {
			if i%3 != 0 { // every third sample never terminates
				l.Completed(id, float64(len(order)+i), 1)
			}
		}
		if stride == 1 && l.dense.NumPages() <= store.FirstPages {
			t.Fatalf("the dense index never passed its first page")
		}
		diffVerify(t, l, seen.ids)
		lines := strings.Split(strings.TrimSuffix(l.Digest(), "\n"), "\n")[1:]
		if len(lines) != len(seen.ids) {
			t.Fatalf("stride %d: %d digest lines, want %d", stride, len(lines), len(seen.ids))
		}
		for i, id := range seen.ids {
			if prefix := strconv.FormatInt(id, 10) + ":"; !strings.HasPrefix(lines[i], prefix) {
				t.Fatalf("stride %d: digest line %d is %q, want id %d", stride, i, lines[i], id)
			}
		}
	}
}

// TestCleanLedgerTurnsBadAfterTerminal checks that an event after a
// clean terminal takes back the terminal's stage tally.
func TestCleanLedgerTurnsBadAfterTerminal(t *testing.T) {
	l := NewLedger()
	drive(l, 100)
	if r := l.Verify(); !r.OK() || l.clean != 100 {
		t.Fatalf("clean ledger: ok=%v clean=%d, want true and 100: %v", r.OK(), l.clean, r.Violations)
	}
	merged(l, 7, 200, 1) // sample 7 completed at stage 0
	dispatched(l, 7, 201, 1, 0)
	r := l.Verify()
	if r.OK() {
		t.Fatal("event after a terminal not flagged")
	}
	if want := refVerify(l, idRange(1, 100)); !reflect.DeepEqual(stageFlows(r), stageFlows(want)) {
		t.Fatalf("stages %v, full walk %v", stageFlows(r), stageFlows(want))
	}
	if l.clean != 99 {
		t.Fatalf("clean = %d after one sample turned bad, want 99", l.clean)
	}
	diffVerify(t, l, idRange(1, 100))
}

// TestCleanVerifyAllocsIndependentOfSamples holds Verify on a clean
// exhaustive ledger to O(stages): ten times the samples must not add a
// single allocation. Half the samples run a two-stage lifecycle at one
// timestamp: ties are legal and must not send Verify walking.
func TestCleanVerifyAllocsIndependentOfSamples(t *testing.T) {
	allocs := func(n int64) float64 {
		l := NewLedger()
		drive(l, n)
		for id := n + 1; id <= 2*n; id++ {
			at := float64(id)
			l.Arrived(id, at)
			l.Queued(id, at)
			dispatched(l, id, at, 0, 1)
			merged(l, id, at, 1)
			dispatched(l, id, at, 1, 2)
			l.Completed(id, at, 5)
		}
		if r := l.Verify(); !r.OK() || l.clean != int(2*n) {
			t.Fatalf("%d samples: %d clean, violations %v", 2*n, l.clean, r.Violations)
		}
		// Keep collections out of the window: one that ends inside it can
		// add the runtime's own allocations to the count.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(5, func() { l.Verify() })
	}
	small, large := allocs(10_000), allocs(100_000)
	if small != large {
		t.Fatalf("clean Verify allocates %v times at 10k samples, %v at 100k; want equal", small, large)
	}
}

// benchSamples is the exhaustive ledger size the benchmarks record and
// verify.
const benchSamples = 100_000

// spoil gives one sample of a driven ledger a second terminal.
func spoil(l *Ledger) { l.Completed(20, benchSamples+1, 1) }

// mixEvent is one event of a replayed stream.
type mixEvent struct {
	id    int64
	kind  Kind
	at    float64
	stage int
}

// replanMix returns n samples' events shaped like the replan loop's, in
// time order: a sample arrives, queues at its arrival's time, and is
// dispatched into one, two or three stages (38/35/27% of samples), with
// a merge before each later dispatch, then completes, so it has 4, 6 or
// 8 events. 22% of dispatches take their predecessor's time. Arrivals
// come every 0.2 ms and samples overlap in flight.
func replanMix(n int) []mixEvent {
	rng := rand.New(rand.NewSource(34))
	out := make([]mixEvent, 0, 6*n)
	for id := int64(1); id <= int64(n); id++ {
		at := float64(id) * 2e-4
		add := func(kind Kind, stage int) { out = append(out, mixEvent{id, kind, at, stage}) }
		add(KindArrived, 0)
		add(KindQueued, 0)
		hops := 1
		if r := rng.Float64(); r >= 0.73 {
			hops = 3
		} else if r >= 0.38 {
			hops = 2
		}
		for s := 0; s < hops; s++ {
			if s > 0 {
				at += rng.ExpFloat64() * 2e-3
				add(KindMerged, s)
			}
			if rng.Float64() >= 0.22 {
				at += rng.ExpFloat64() * 2e-3
			}
			add(KindDispatched, s)
		}
		at += rng.ExpFloat64() * 5e-3
		add(KindCompleted, 4*hops)
	}
	slices.SortStableFunc(out, func(a, b mixEvent) int { return cmp.Compare(a.at, b.at) })
	return out
}

// replay records evs into l.
func replay(l *Ledger, evs []mixEvent) {
	for _, e := range evs {
		switch e.kind {
		case KindArrived:
			l.Arrived(e.id, e.at)
		case KindQueued:
			l.Queued(e.id, e.at)
		case KindDispatched:
			dispatched(l, e.id, e.at, e.stage, int(e.id%4))
		case KindMerged:
			merged(l, e.id, e.at, e.stage)
		case KindCompleted:
			l.Completed(e.id, e.at, e.stage)
		case KindDropped:
			l.Dropped(e.id, e.at, ReasonStaleShed)
		}
	}
}

// shedOdd returns evs with every odd sample stale-shed where it would
// have completed, as an overloaded cluster sheds about half its load.
func shedOdd(evs []mixEvent) []mixEvent {
	out := slices.Clone(evs)
	for i, e := range out {
		if e.kind == KindCompleted && e.id%2 == 1 {
			out[i].kind = KindDropped
		}
	}
	return out
}

// BenchmarkLedgerRecord records 100k samples: on an exhaustive ledger,
// drive's clean mix, the same with one violation, and the replan loop's
// mix (replanMix); on a stride-1000 ledger, which tracks one sample in a
// thousand, the replan mix with every odd sample stale-shed (shedOdd).
func BenchmarkLedgerRecord(b *testing.B) {
	mix := replanMix(benchSamples)
	shed := shedOdd(mix)
	for _, bc := range []struct {
		name   string
		stride int64
		events int
		record func(l *Ledger)
	}{
		{"clean", 1, 4*benchSamples - benchSamples/5, func(l *Ledger) { drive(l, benchSamples) }},
		{"violation", 1, 4*benchSamples - benchSamples/5 + 1, func(l *Ledger) { drive(l, benchSamples); spoil(l) }},
		{"replan-mix", 1, len(mix), func(l *Ledger) { replay(l, mix) }},
		{"stride-1000-shed", 1000, len(shed), func(l *Ledger) { replay(l, shed) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				bc.record(NewSampledLedger(bc.stride))
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bc.events), "ns/event")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/benchSamples, "B/sample")
		})
	}
}

func BenchmarkLedgerVerify(b *testing.B) {
	for _, bc := range []struct {
		name  string
		spoil bool
	}{{"clean", false}, {"violation", true}} {
		b.Run(bc.name, func(b *testing.B) {
			l := NewLedger()
			drive(l, benchSamples)
			if bc.spoil {
				spoil(l)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if l.Verify().OK() == bc.spoil {
					b.Fatal("verdict does not match the stream")
				}
			}
		})
	}
}
