package workload

import "e3/internal/trace"

// Feed mints an arrival stream's samples ahead of the event loop that
// consumes them. One producer goroutine pulls the stream, draws each
// sample at its shifted arrival time (offset+at) and hands whole chunks
// to the loop over a channel; the loop takes the samples in stream order
// with Next and records each one itself (Generator.Record) when it
// arrives. A draw reads only the stream and the generator's draw state,
// so the minted samples are exactly the ones Generator.Next would have
// returned at those times, and every run stays byte-identical. On a
// paper-scale trace the two gamma draws per request then cost the loop
// nothing but the handoff.
//
// Chunks start at feedFirstChunk samples and double up to feedMaxChunk,
// so a short stream does not wait for a full chunk before its first
// arrival. The chunk buffers belong to the generator and are reused by
// its next feed.
//
// A feed is owned by one event loop: Next and Stop must be called from
// the goroutine that started it.
type Feed struct {
	gen *Generator
	// full carries minted chunks to the loop in stream order and is
	// closed after the last one; free returns consumed chunks to the
	// producer. Each has room for every buffer, so neither side ever
	// blocks on a send.
	full, free chan []Sample
	// quit asks the producer to stop; done is closed when it has.
	quit, done chan struct{}
	// cur is the chunk the loop is taking samples from, i its next index.
	cur []Sample
	i   int
}

const (
	// feedChunks is the number of handoff buffers: the producer fills
	// some while the loop drains one.
	feedChunks = 4
	// feedFirstChunk is the first chunk's size; each later chunk doubles
	// up to feedMaxChunk.
	feedFirstChunk = 64
	feedMaxChunk   = 1024
)

// Feed starts minting st's arrivals, each shifted by offset and given the
// SLO slo, on a producer goroutine that owns g's draw state until Stop
// returns. It panics if g already has a live feed.
func (g *Generator) Feed(st trace.Stream, offset, slo float64) *Feed {
	g.owned("Feed")
	f := &Feed{
		gen:  g,
		full: make(chan []Sample, feedChunks), //e3:concurrent minted chunks cross to the loop
		free: make(chan []Sample, feedChunks), //e3:concurrent consumed chunks cross back
		quit: make(chan struct{}),             //e3:concurrent Stop's signal
		done: make(chan struct{}),             //e3:concurrent Stop's join
	}
	for i := range g.chunks {
		if g.chunks[i] == nil {
			g.chunks[i] = make([]Sample, feedMaxChunk)
		}
		f.free <- g.chunks[i] //e3:concurrent prefill: the producer has not started
	}
	g.feed = f
	//e3:concurrent mint-ahead producer: it touches only st and g's draw state, which the loop leaves alone until Stop has joined it
	go f.produce(st, offset, slo)
	return f
}

// produce mints chunks until the stream ends or Stop asks it to quit.
func (f *Feed) produce(st trace.Stream, offset, slo float64) {
	defer close(f.done)
	g := f.gen
	size := feedFirstChunk
	for {
		var buf []Sample
		//e3:concurrent waits for a consumed chunk, or for Stop
		select {
		case buf = <-f.free: //e3:concurrent a chunk the loop has finished with
		case <-f.quit: //e3:concurrent Stop before the stream ended
			return
		}
		n := 0
		for ; n < size; n++ {
			at, ok := st.Next()
			if !ok {
				break
			}
			buf[n] = g.draw(offset+at, slo)
		}
		if n > 0 {
			f.full <- buf[:n] //e3:concurrent never blocks: full has room for every buffer
		}
		if n < size {
			close(f.full)
			return
		}
		size = min(2*size, feedMaxChunk)
	}
}

// Next returns the stream's next minted sample, waiting for the producer
// if it has fallen behind; ok is false once the stream has ended.
//
//e3:hotpath runs once per streamed arrival; taking a sample must not allocate
func (f *Feed) Next() (s Sample, ok bool) {
	if f.i == len(f.cur) {
		if f.cur != nil {
			f.free <- f.cur[:cap(f.cur)] //e3:concurrent hand the drained chunk back; never blocks
		}
		f.cur, f.i = nil, 0
		buf, more := <-f.full //e3:concurrent the next chunk in stream order
		if !more {
			return Sample{}, false
		}
		f.cur = buf
	}
	s = f.cur[f.i]
	f.i++
	return s, true
}

// Stop stops the producer and waits for it to exit, then hands the
// generator back to the loop. It is idempotent. A feed stopped before its
// stream ended leaves the generator's draw state ahead of the samples the
// loop took.
func (f *Feed) Stop() {
	if f.gen.feed != f {
		return
	}
	close(f.quit)
	<-f.done //e3:concurrent join the producer
	f.gen.feed = nil
}
