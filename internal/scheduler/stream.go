package scheduler

import (
	"math"

	"e3/internal/audit"
	"e3/internal/workload"
)

// The boundary stream moves the ledger and the views off the event loop.
// A streaming Collector encodes each boundary as one pointer-free record
// of 8-byte words into a chunk; full chunks cross to one consumer
// goroutine, which decodes every record in order and hands it to the
// fan-out, so every view sees exactly the calls, in exactly the order, it
// would have seen inline. It is workload.Feed run in reverse: chunks are
// handed over whole over channels and their buffers are reused, and
// either side blocks (never spins) when the other falls behind.
//
// A record is a header word followed by its payload. The header packs
// the op (8 bits), a signed 16-bit field (a stage, or a completion's exit
// layer), an unsigned 16-bit field (a device, or a drop's reason index)
// and a 24-bit count (a batch size, or a window index). Times travel as
// float64 bits, so decoding is exact. Batch records carry their members'
// ids, and dispatch records their arrivals too, from which attribution
// opens a request. Records copy every value they carry: batches are pooled and
// recycled, so a record must never point into one. The few strings a
// record needs (device names, model names, drop reasons) are interned on
// the loop; a record introducing one carries it in its chunk's string
// list, and later records refer to it by index.
//
// The loop waits for the consumer only at a barrier: Sync (before a
// flight-recorder trigger reads the views), AuditReport, and Stop/Close,
// which also join it.

// Record ops.
const (
	opArrive       = iota + 1 // id, arrival
	opQueue                   // at, id, arrival
	opQueueWait               // head, at
	opDispatch                // at, members (id, arrival)
	opExecute                 // start, end, ramp, pad, from|to<<32, model, ids
	opTransfer                // start, end
	opMerge                   // at, ids
	opFuse                    // start, end
	opComplete                // at, id, arrival
	opDrop                    // at, id
	opRegister                // strings: device id, kind
	opModel                   // strings: model name
	opReason                  // strings: drop reason
	opReplan                  // at
	opPlanCacheHit            // at
	opSLOBurn                 // at
	opSnapshot                // (none)
)

const (
	// streamChunks is the number of chunk buffers; chunkWords is the
	// size a chunk is handed over at (a record never spans two chunks, so
	// a record larger than a chunk grows that chunk once).
	streamChunks = 8
	chunkWords   = 8192
)

// chunk is one handoff buffer: records, and the strings they introduce.
type chunk struct {
	w    []uint64
	strs []string
}

// stream is the loop's half: the chunk being filled and the intern
// tables. Only the event loop touches it.
type stream struct {
	// cur is the chunk being filled: its records are w[:n]. w spans the
	// chunk's whole buffer until flush hands it over.
	cur *chunk
	w   []uint64
	n   int
	// spare holds empty chunks the loop owns; out counts chunks handed to
	// the consumer and not yet taken back from free.
	spare []*chunk
	out   int
	//e3:concurrent the loop sends full chunks to the consumer and takes them back emptied
	full, free chan *chunk
	done       chan struct{} //e3:concurrent closed when the consumer has exited
	models     []string
	reasons    []audit.Reason
}

func newStream() *stream {
	s := &stream{
		full: make(chan *chunk, streamChunks), //e3:concurrent room for every chunk: a send never blocks
		free: make(chan *chunk, streamChunks), //e3:concurrent room for every chunk: a send never blocks
		done: make(chan struct{}),             //e3:concurrent the consumer's exit
	}
	for range streamChunks {
		s.spare = append(s.spare, &chunk{w: make([]uint64, 0, chunkWords)})
	}
	s.take()
	return s
}

// take makes an empty chunk current, waiting for the consumer to return
// one when the loop holds none.
func (s *stream) take() {
	if k := len(s.spare); k > 0 {
		s.cur = s.spare[k-1]
		s.spare = s.spare[:k-1]
	} else {
		s.cur = <-s.free //e3:concurrent blocks while the consumer is a whole buffer behind
		s.out--
	}
	s.w, s.n = s.cur.w[:cap(s.cur.w)], 0
}

// flush hands the current chunk to the consumer.
func (s *stream) flush() {
	s.cur.w = s.w[:s.n]
	s.full <- s.cur //e3:concurrent never blocks: full has room for every chunk
	s.out++
	s.take()
}

// sync returns once the consumer has applied every record written so far.
func (s *stream) sync() {
	if s.n > 0 {
		s.flush()
	}
	for ; s.out > 0; s.out-- {
		s.spare = append(s.spare, <-s.free) //e3:concurrent the barrier: every chunk handed over comes back applied
	}
}

// stop syncs, then ends and joins the consumer.
func (s *stream) stop() {
	s.sync()
	close(s.full)
	<-s.done //e3:concurrent join the consumer
}

// rec reserves a k-word record in the current chunk, handing the chunk
// over first if the record would not fit.
func (s *stream) rec(k int) []uint64 {
	n := s.n
	if n+k > len(s.w) {
		return s.recNext(k)
	}
	s.n = n + k
	return s.w[n : n+k]
}

// recNext is rec's slow path: it hands the current chunk over and
// reserves the record at the start of the next, growing that chunk once
// if the record is larger than a whole chunk.
func (s *stream) recNext(k int) []uint64 {
	if s.n > 0 {
		s.flush()
	}
	if k > len(s.w) {
		s.w = make([]uint64, k)
	}
	s.n = k
	return s.w[:k]
}

// head packs a record header; it panics on a field its bits cannot hold.
func head(op uint64, a, b, n int) uint64 {
	if int(int16(a)) != a || uint(b) > math.MaxUint16 || uint(n) >= 1<<24 {
		panic("scheduler: boundary record field out of range")
	}
	return op | uint64(uint16(a))<<8 | uint64(b)<<24 | uint64(n)<<40
}

func bits(x float64) uint64 { return math.Float64bits(x) }

func f64(x uint64) float64 { return math.Float64frombits(x) }

// strs writes a one-word record of op with field b that introduces the
// given strings.
func (s *stream) strs(op uint64, b int, strs ...string) {
	r := s.rec(1)
	r[0] = head(op, 0, b, 0)
	s.cur.strs = append(s.cur.strs, strs...)
}

// model interns a model name, introducing it to the consumer on first use.
func (s *stream) model(name string) uint64 {
	for i, m := range s.models {
		if m == name {
			return uint64(i)
		}
	}
	s.models = append(s.models, name)
	s.strs(opModel, 0, name)
	return uint64(len(s.models) - 1)
}

// reason interns a drop reason, introducing it to the consumer on first use.
func (s *stream) reason(reason audit.Reason) int {
	for i, r := range s.reasons {
		if r == reason {
			return i
		}
	}
	s.reasons = append(s.reasons, reason)
	s.strs(opReason, 0, string(reason))
	return len(s.reasons) - 1
}

func (s *stream) arrived(id int64, at float64) {
	r := s.rec(3)
	r[0] = head(opArrive, 0, 0, 0)
	r[1] = uint64(id)
	r[2] = bits(at)
}

func (s *stream) queued(smp workload.Sample, at float64) {
	r := s.rec(4)
	r[0] = head(opQueue, 0, 0, 0)
	r[1] = bits(at)
	r[2] = uint64(smp.ID)
	r[3] = bits(smp.Arrival)
}

func (s *stream) queueWait(n int, headAt, at float64) {
	r := s.rec(3)
	r[0] = head(opQueueWait, 0, 0, n)
	r[1] = bits(headAt)
	r[2] = bits(at)
}

func (s *stream) dispatched(batch []workload.Sample, at float64, stage, device int) {
	r := s.rec(2 + 2*len(batch))
	r[0] = head(opDispatch, stage, device, len(batch))
	r[1] = bits(at)
	m := r[2:]
	for i := range batch {
		m[2*i] = uint64(batch[i].ID)
		m[2*i+1] = bits(batch[i].Arrival)
	}
}

func (s *stream) executed(device int, model string, stage, from, to int, batch []workload.Sample, start, end, ramp, pad float64) {
	m := s.model(model)
	r := s.rec(7 + len(batch))
	r[0] = head(opExecute, stage, device, len(batch))
	r[1], r[2], r[3], r[4] = bits(start), bits(end), bits(ramp), bits(pad)
	r[5] = uint64(uint32(from)) | uint64(uint32(to))<<32
	r[6] = m
	ids(r[7:], batch)
}

// span records a transfer or fusion of n over [start, end].
func (s *stream) span(op uint64, stage, n int, start, end float64) {
	r := s.rec(3)
	r[0] = head(op, stage, 0, n)
	r[1] = bits(start)
	r[2] = bits(end)
}

func (s *stream) merged(survivors []workload.Sample, at float64, stage int) {
	r := s.rec(2 + len(survivors))
	r[0] = head(opMerge, stage, 0, len(survivors))
	r[1] = bits(at)
	ids(r[2:], survivors)
}

func (s *stream) completed(smp workload.Sample, at float64, exitLayer int) {
	r := s.rec(4)
	r[0] = head(opComplete, exitLayer, 0, 0)
	r[1] = bits(at)
	r[2] = uint64(smp.ID)
	r[3] = bits(smp.Arrival)
}

func (s *stream) dropped(smp workload.Sample, at float64, reason audit.Reason) {
	x := s.reason(reason)
	r := s.rec(3)
	r[0] = head(opDrop, 0, x, 0)
	r[1] = bits(at)
	r[2] = uint64(smp.ID)
}

func (s *stream) control(op uint64, w int, at float64) {
	r := s.rec(2)
	r[0] = head(op, 0, 0, w)
	r[1] = bits(at)
}

func (s *stream) snapshot() {
	r := s.rec(1)
	r[0] = head(opSnapshot, 0, 0, 0)
}

// ids writes each member's id.
func ids(dst []uint64, batch []workload.Sample) {
	for i := range batch {
		dst[i] = uint64(batch[i].ID)
	}
}

// decoder is the consumer's half: it owns the fan-out while the stream is
// live, plus the decoded intern tables and a reused member buffer.
type decoder struct {
	f       *fanout
	batch   []workload.Sample
	models  []string
	reasons []audit.Reason
}

// run applies chunks in order until the loop closes full.
//
//e3:concurrent the stream's consumer: it alone touches the ledger and the views until the loop joins it
func (d *decoder) run(full <-chan *chunk, free chan<- *chunk, done chan<- struct{}) {
	defer close(done)
	for ch := range full { //e3:concurrent chunks in stream order
		d.apply(ch)
		ch.w = ch.w[:0]
		clear(ch.strs)
		ch.strs = ch.strs[:0]
		free <- ch //e3:concurrent never blocks: free has room for every chunk
	}
}

// members decodes an execute record's n member ids. Their arrivals are
// stale: no view reads them at that boundary.
func (d *decoder) members(w []uint64, n int) []workload.Sample {
	if cap(d.batch) < n {
		d.batch = make([]workload.Sample, n)
	}
	b := d.batch[:n]
	for i := range b {
		b[i].ID = int64(w[i])
	}
	return b
}

// apply hands every record of ch to the fan-out.
func (d *decoder) apply(ch *chunk) {
	f, w, strs := d.f, ch.w, ch.strs
	for i := 0; i < len(w); {
		h := w[i]
		op, a, b, n := h&0xff, int(int16(h>>8)), int(uint16(h>>24)), int(h>>40)
		switch op {
		case opArrive:
			f.arrived(int64(w[i+1]), f64(w[i+2]))
			i += 3
		case opQueue:
			f.queued(workload.Sample{ID: int64(w[i+2]), Arrival: f64(w[i+3])}, f64(w[i+1]))
			i += 4
		case opQueueWait:
			f.queueWait(n, f64(w[i+1]), f64(w[i+2]))
			i += 3
		case opDispatch:
			f.dispatchedRecord(w[i+2:i+2+2*n], f64(w[i+1]), a, b)
			i += 2 + 2*n
		case opExecute:
			fromTo := w[i+5]
			f.executed(b, d.models[w[i+6]], a, int(uint32(fromTo)), int(fromTo>>32), d.members(w[i+7:], n),
				f64(w[i+1]), f64(w[i+2]), f64(w[i+3]), f64(w[i+4]))
			i += 7 + n
		case opTransfer:
			f.transferred(a, n, f64(w[i+1]), f64(w[i+2]))
			i += 3
		case opMerge:
			f.mergedRecord(w[i+2:i+2+n], f64(w[i+1]), a)
			i += 2 + n
		case opFuse:
			f.fused(a, n, f64(w[i+1]), f64(w[i+2]))
			i += 3
		case opComplete:
			f.completed(workload.Sample{ID: int64(w[i+2]), Arrival: f64(w[i+3])}, f64(w[i+1]), a)
			i += 4
		case opDrop:
			f.dropped(workload.Sample{ID: int64(w[i+2])}, f64(w[i+1]), d.reasons[b])
			i += 3
		case opRegister:
			f.register(b, strs[0], strs[1])
			strs = strs[2:]
			i++
		case opModel:
			d.models = append(d.models, strs[0])
			strs = strs[1:]
			i++
		case opReason:
			d.reasons = append(d.reasons, audit.Reason(strs[0]))
			strs = strs[1:]
			i++
		case opReplan, opPlanCacheHit, opSLOBurn:
			f.control(op, n, f64(w[i+1]))
			i += 2
		case opSnapshot:
			f.snapshot()
			i++
		default:
			panic("scheduler: corrupt boundary record")
		}
	}
}

// Observe attaches an exhaustive ledger and obs and moves them off the
// calling goroutine: every boundary is then encoded into the stream, and
// one consumer goroutine applies it. Once streaming it does nothing. Feed
// arrivals through the collector (workload.Generator.SetSink). The views
// are the consumer's until the next barrier: Sync, AuditReport, Stop or
// Close. Stop (or Close) the collector on every path, aborts included, so
// the consumer never outlives the run.
func (c *Collector) Observe(obs Observers) {
	if c.st != nil {
		return
	}
	c.Audit = audit.NewLedger()
	c.Observers = obs
	c.st = newStream()
	d := &decoder{f: c.fan()}
	//e3:concurrent the stream's consumer; Stop joins it
	go d.run(c.st.full, c.st.free, c.st.done)
}

// Sync returns once the consumer has applied every boundary recorded so
// far, so the loop may read the ledger and the views until it records the
// next one. It does nothing when the collector does not stream.
func (c *Collector) Sync() {
	if c.st != nil {
		c.st.sync()
	}
}

// Stop applies every recorded boundary, joins the consumer, and returns
// the collector to inline fan-out. It is idempotent.
func (c *Collector) Stop() {
	if c.st != nil {
		c.st.stop()
		c.st = nil
	}
}
