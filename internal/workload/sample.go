package workload

import (
	"math/rand"

	"e3/internal/audit"
)

// Sample is one inference request.
type Sample struct {
	ID         int64
	Difficulty float64
	// Arrival is the virtual time the request entered the system.
	Arrival float64
	// Deadline is Arrival + SLO; the serving layer drops samples it cannot
	// finish by then.
	Deadline float64
}

// Generator mints samples from a difficulty distribution with sequential
// IDs. It is deterministic for a fixed seed.
//
// Minting has two halves. Draw is the pure mint: it advances the ID
// counter and the RNG and reads nothing else, so it may run ahead of the
// event loop. Record is the loop's half: it reports the arrival to the
// attached sink. Next is Draw followed by Record.
//
// Feed ownership: while a Feed started by g.Feed is live, its producer
// goroutine owns the ID counter, the RNG and the distribution, and the
// event loop may only Record. Draw, Next, Batch and SwitchDist panic until
// the feed's Stop returns; Stop joins the producer, and the generator is
// the loop's again.
type Generator struct {
	dist Dist
	rng  *rand.Rand
	next int64
	sink ArrivalSink

	// feed is the live mint-ahead feed (nil when none runs). chunks are
	// the feeds' handoff buffers, allocated by the first feed and reused
	// by every later one.
	feed   *Feed
	chunks [feedChunks][]Sample
}

// NewGenerator builds a seeded generator.
func NewGenerator(dist Dist, seed int64) *Generator {
	return &Generator{dist: dist, rng: rand.New(rand.NewSource(seed))}
}

// ArrivalSink takes each recorded arrival: the sample's id and arrival
// time. A scheduler.Collector is one, and feeds the arrival to its ledger
// and views in order with every later boundary of the sample; a bare
// *audit.Ledger is one too.
type ArrivalSink interface {
	Arrived(id int64, at float64)
}

// SetSink routes every recorded arrival to sink. A nil sink disables
// recording.
func (g *Generator) SetSink(sink ArrivalSink) { g.sink = sink }

// SetAudit is SetSink(l): it attaches a bare ledger, as the benchmark
// module's stacks do.
func (g *Generator) SetAudit(l *audit.Ledger) { g.SetSink(l) }

// Next mints one sample arriving at the given time with the given SLO and
// records its arrival.
func (g *Generator) Next(arrival, slo float64) Sample {
	s := g.Draw(arrival, slo)
	g.Record(s)
	return s
}

// Draw mints one sample arriving at the given time with the given SLO
// without recording it.
func (g *Generator) Draw(arrival, slo float64) Sample {
	g.owned("Draw")
	return g.draw(arrival, slo)
}

// draw is the mint itself: the next ID and one difficulty draw.
func (g *Generator) draw(arrival, slo float64) Sample {
	g.next++
	return Sample{
		ID:         g.next,
		Difficulty: g.dist.Sample(g.rng),
		Arrival:    arrival,
		Deadline:   arrival + slo,
	}
}

// Record reports a drawn sample's arrival to the attached sink. It runs
// on the event loop at the sample's arrival time, also while a feed is
// live.
func (g *Generator) Record(s Sample) {
	if g.sink != nil {
		g.sink.Arrived(s.ID, s.Arrival)
	}
}

// owned panics when a live feed's producer owns the draw state.
func (g *Generator) owned(op string) {
	if g.feed != nil {
		panic("workload: Generator." + op + " while a Feed is live")
	}
}

// Batch mints n samples that all arrive at the given time (closed-loop
// clients always have a full batch waiting, §4).
func (g *Generator) Batch(n int, arrival, slo float64) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = g.Next(arrival, slo)
	}
	return out
}

// SwitchDist changes the difficulty distribution mid-stream, modelling the
// workload shifts of §5.4 (80/20 → 50/50 → 20/80).
func (g *Generator) SwitchDist(d Dist) {
	g.owned("SwitchDist")
	g.dist = d
}
