package serving

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/metrics"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/scheduler"
	"e3/internal/sim"
	"e3/internal/trace"
	"e3/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

const utilGoldenPath = "testdata/utilization.golden"

// utilLine renders a tracker's utilization at end as float64 bits and
// every device's integer busy nanoseconds.
func utilLine(label string, u *metrics.UtilizationTracker, end float64) string {
	var b strings.Builder
	util := u.Utilization(end)
	fmt.Fprintf(&b, "%s end=%v util=%#016x (%v)", label, end, math.Float64bits(util), util)
	for _, name := range u.Resources() {
		fmt.Fprintf(&b, " %s=%d", name, u.BusyNanos(name))
	}
	return b.String()
}

// TestUtilizationGolden pins Fig 19's utilization bit for bit on real
// runs: the pipeline, data-parallel and serial runners serve a short
// bursty open-loop trace on 16 V100s, and each records the utilization's
// float64 bits and every device's busy nanoseconds after the drain. The
// pipeline and data-parallel runs also record both at two mid-run clocks,
// where batches still executing are clipped to the query's end.
// Regenerate with `go test ./internal/serving/ -run TestUtilizationGolden
// -update` only for an intended behaviour change.
func TestUtilizationGolden(t *testing.T) {
	const (
		batch = 8
		slo   = 0.1
	)
	base := model.BERTBase()
	dee := ee.NewDeeBERT(base, 0.4)
	dist := workload.Mix(0.8)
	mk := func() *cluster.Cluster { return cluster.Homogeneous(gpu.V100, 16) }
	prof := profile.FromDist(dee, dist, 8000, 1)
	plan, err := optimizer.MaximizeGoodput(optimizer.NewConfig(dee, prof, batch, mk(), slo))
	if err != nil {
		t.Fatal(err)
	}
	arr := trace.Bursty(trace.DefaultBursty(1000), 30, 191)
	// Two clocks inside bursts, where batches are still executing.
	mids := []float64{arr[len(arr)/3] + 0.0123, arr[2*len(arr)/3] + 0.0123}

	runs := []struct {
		kind string
		est  float64
		mids []float64
		mk   func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error)
	}{
		{"pipeline", plan.Latency, mids, func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error) {
			return scheduler.NewPipeline(eng, mk(), dee, plan, coll)
		}},
		{"dataparallel", 0.030, mids, func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error) {
			devs := make([]int, 16)
			for i := range devs {
				devs[i] = i
			}
			return scheduler.NewDataParallel(eng, mk(), dee, devs, coll)
		}},
		{"serial", plan.Latency, nil, func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error) {
			return scheduler.NewSerial(eng, mk(), dee, plan, coll), nil
		}},
	}
	var lines []string
	for _, run := range runs {
		eng := sim.NewEngine()
		r, err := run.mk(eng, scheduler.NewCollector(base.NumLayers(), slo, 0))
		if err != nil {
			t.Fatal(err)
		}
		b := NewBatcher(eng, r, batch, run.est, optimizer.DefaultSlackFrac)
		gen := workload.NewGenerator(dist, 191)
		stop := FeedStream(eng, b, trace.NewSliceStream(arr), 0, gen, slo)
		u := r.Collector().Util
		for _, mid := range run.mids {
			if err := eng.Run(mid); err != nil {
				t.Fatal(err)
			}
			lines = append(lines, utilLine(run.kind+" mid", u, eng.Now()))
		}
		if err := Drain(eng, []*Batcher{b}, r); err != nil {
			t.Fatal(err)
		}
		stop()
		lines = append(lines, utilLine(run.kind+" drained", u, eng.Now()))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(utilGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(utilGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("utilization drifted from %s:\ngot:\n%swant:\n%s", utilGoldenPath, got, want)
	}
}
