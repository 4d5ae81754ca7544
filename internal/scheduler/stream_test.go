package scheduler

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"testing"
	"time"

	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/exec"
	"e3/internal/flame"
	"e3/internal/gpu"
	"e3/internal/slo"
	"e3/internal/telemetry"
	"e3/internal/workload"
)

// streamScript drives c through every boundary kind the collector
// records: registrations, arrivals, admissions (and dispatches of
// unadmitted samples), queue waits, two-stage
// batches with transfers, merges and fusions, completions, drops under
// three reasons (one unclassified), control-plane instants and flame
// snapshots, plus one batch too large for a single chunk. halfway runs
// once in the middle.
func streamScript(c *Collector, halfway func()) {
	clus := cluster.Homogeneous(gpu.V100, 3)
	for i := range clus.Devices {
		c.Register(&clus.Devices[i], i)
	}
	reasons := []audit.Reason{audit.ReasonAdmission, audit.ReasonStaleShed, "unclassified"}
	var id int64
	t := 0.0
	const groups = 3000
	for g := 0; g < groups; g++ {
		if g == groups/2 {
			halfway()
		}
		n := 8
		if g == groups/3 {
			// One record larger than a whole chunk.
			n = chunkWords + 5
		}
		batch := make([]workload.Sample, n)
		for i := range batch {
			id++
			batch[i] = workload.Sample{ID: id, Arrival: t, Deadline: t + 0.05}
			c.Arrived(id, t)
			if id%97 == 0 {
				c.Drop(batch[i], t, reasons[int(id/97)%len(reasons)])
				continue
			}
			if id%11 != 0 {
				// The rest reach dispatch unqueued, as samples ingested
				// without a batcher do; attribution opens them there.
				c.Queued(batch[i], t)
			}
			t += 0.0001
		}
		live := batch[:0]
		for _, s := range batch {
			if s.ID%97 != 0 {
				live = append(live, s)
			}
		}
		dev := g % 2
		c.QueueWait(live, t)
		c.Dispatched(live, t, 0, dev)
		res := exec.Result{Duration: 0.002, RampTime: 0.0003, PadTime: 0.0001}
		c.Executed(dev, "bert", 0, 1, 6, live, t, &res)
		half := len(live) / 2
		for _, s := range live[:half] {
			c.Complete(s, t+0.002, 3)
		}
		surv := live[half:]
		c.Transferred(0, len(surv), t+0.002, t+0.0025)
		c.Merged(surv, t+0.0025, 1)
		c.Fused(1, len(surv), t+0.0025, t+0.003)
		c.Dispatched(surv, t+0.003, 1, 2)
		c.Executed(2, "bert", 1, 7, 12, surv, t+0.003, &res)
		for _, s := range surv {
			c.Complete(s, t+0.005+float64(g%7)*0.01, 12)
		}
		switch g % 500 {
		case 0:
			c.Replan(g/500, t)
		case 1:
			c.PlanCacheHit(g/500, t)
		case 2:
			c.SLOBurn(g/500, t)
		case 3:
			c.SnapshotFlame()
		}
		t += 0.001
	}
}

// observers is the tracer and the flame profiler, plus attribution when
// attr is set.
func observers(attr bool) Observers {
	obs := Observers{Tracer: telemetry.New(), Flame: flame.NewProfiler(0)}
	if attr {
		obs.Attr = slo.NewAttribution(slo.DefaultTopK)
	}
	return obs
}

// collectorOutputs renders everything the ledger and the views export
// after Close.
func collectorOutputs(t *testing.T, c *Collector, now float64) string {
	t.Helper()
	rep, stat := c.Close(now)
	var out bytes.Buffer
	out.WriteString(c.Audit.Digest())
	out.WriteString(rep.String())
	if err := telemetry.WriteChrome(&out, c.Tracer.Spans()); err != nil {
		t.Fatal(err)
	}
	if c.Attr != nil {
		dump, err := json.Marshal(c.Attr.Dump())
		if err != nil {
			t.Fatal(err)
		}
		out.Write(dump)
	}
	for _, p := range append(c.FlameWindows(), c.Flame.Profile()) {
		out.Write(p.Folded())
		if err := p.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
	}
	if err := json.NewEncoder(&out).Encode(stat); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestStreamMatchesInline: a streaming collector hands the ledger and
// every view exactly the calls the inline fan-out makes, so every export
// is byte-identical, and Sync leaves the ledger exactly as far along as
// the loop. It runs once with attribution attached and once without.
func TestStreamMatchesInline(t *testing.T) {
	for _, attr := range []bool{true, false} {
		inline := NewCollector(12, 0.05, 0)
		inline.Audit = audit.NewLedger()
		inline.Observers = observers(attr)
		streamScript(inline, func() {})

		streamed := NewCollector(12, 0.05, 0)
		before := runtime.NumGoroutine()
		streamed.Observe(observers(attr))
		streamScript(streamed, func() {
			streamed.Sync()
			arrived, completed, dropped := streamed.Audit.Totals()
			// Every group terminates all it admits, so between groups every
			// arrival has its terminal.
			if completed != streamed.Good.Served+streamed.Violations || dropped != streamed.Dropped || arrived != completed+dropped {
				t.Errorf("attr %v: after Sync the ledger has arrived %d completed %d dropped %d; the loop counted %d completed, %d dropped",
					attr, arrived, completed, dropped, streamed.Good.Served+streamed.Violations, streamed.Dropped)
			}
		})
		const end = 10.0
		want, got := collectorOutputs(t, inline, end), collectorOutputs(t, streamed, end)
		if got != want {
			t.Fatalf("attr %v: streamed outputs differ from inline (%d vs %d bytes)", attr, len(got), len(want))
		}
		if n := len(streamed.FlameWindows()); n != 6 {
			t.Fatalf("attr %v: %d flame snapshots, want 6", attr, n)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("attr %v: %d goroutines after Close, want %d", attr, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// recordStream runs streamScript into a streaming collector whose chunks
// a stand-in consumer copies instead of applying, and returns the copies
// in stream order.
func recordStream() []*chunk {
	c := NewCollector(12, 0.05, 0)
	c.st = newStream()
	var rec []*chunk
	go func() {
		for ch := range c.st.full {
			rec = append(rec, &chunk{w: slices.Clone(ch.w), strs: slices.Clone(ch.strs)})
			ch.w = ch.w[:0]
			clear(ch.strs)
			ch.strs = ch.strs[:0]
			c.st.free <- ch
		}
		close(c.st.done)
	}()
	streamScript(c, func() {})
	c.Stop()
	return rec
}

// applyStream applies rec through a fresh decoder whose collector has an
// exhaustive ledger and the first views of a tracer ring, attribution and
// a flame profiler, as the replan loop's observed stack has all three,
// and returns that collector.
func applyStream(rec []*chunk, views int) *Collector {
	c := NewCollector(12, 0.05, 0)
	c.Audit = audit.NewLedger()
	if views > 0 {
		c.Tracer = telemetry.NewRing(4096)
	}
	if views > 1 {
		c.Attr = slo.NewAttribution(slo.DefaultTopK)
	}
	if views > 2 {
		c.Flame = flame.NewProfiler(0)
	}
	d := &decoder{f: c.fan()}
	for _, ch := range rec {
		d.apply(ch)
	}
	return c
}

// BenchmarkStreamApply is the stream consumer's cost: it replays a
// recorded streamScript stream through a fresh decoder and reports ns per
// sample, with the ledger alone and then adding the tracer, attribution
// and the flame profiler in turn; "all" is the replan loop's observed
// stack, and each step's difference is that view's cost.
func BenchmarkStreamApply(b *testing.B) {
	rec := recordStream()
	arrived, _, _ := applyStream(rec, 0).Audit.Totals()
	for views, name := range []string{"ledger", "tracer", "attr", "all"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				applyStream(rec, views)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(arrived), "ns/sample")
		})
	}
}
