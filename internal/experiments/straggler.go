package experiments

import (
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/workload"
)

func init() { register("extension-straggler", ExtensionStraggler) }

// ExtensionStraggler exercises the §3.3 straggler path end to end: one
// replica of E3's first split runs 4x slow; the monitor must strike and
// exclude it, and goodput must stay close to the healthy cluster's.
func ExtensionStraggler() Table {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	dist := mix80()
	const batch = 8

	run := func(slow bool) (goodput float64, excluded int, violFrac float64) {
		clus := cluster.Homogeneous(gpu.V100, 16)
		plan, err := planE3(clus, m, dist, batch, defaultSLO, nil)
		if err != nil {
			return 0, 0, 0
		}
		if slow {
			devs := clus.OfKind(plan.Splits[0].Kind)
			clus.MarkStraggler(devs[0], 4.0)
		}
		eng := sim.NewEngine()
		coll := probeCollector(m.Base.NumLayers(), defaultSLO)
		pipe, err := scheduler.NewPipeline(eng, clus, m, plan, coll)
		if err != nil {
			return 0, 0, 0
		}
		gen := workload.NewGenerator(dist, 301)
		// Offer 70% of the healthy plan so a healthy run is clean.
		c, err := serving.RunClosedLoop(eng, pipe, gen, batch, plan.Goodput*0.7, 4.0, defaultSLO)
		if err != nil {
			return 0, 0, 0
		}
		total := c.Good.Served + c.Violations + c.Dropped
		if total == 0 {
			return 0, pipe.ExcludedInstances(), 0
		}
		return c.Good.Goodput(), pipe.ExcludedInstances(),
			float64(c.Violations+c.Dropped) / float64(total)
	}

	gHealthy, exHealthy, vHealthy := run(false)
	gSlow, exSlow, vSlow := run(true)

	t := Table{
		ID:      "extension-straggler",
		Title:   "Straggler detection and exclusion (one 4x-slow replica)",
		Columns: []string{"scenario", "goodput (samples/s)", "excluded instances", "bad fraction"},
		Notes:   "§3.3: the monitor strikes slow instances out of rotation; goodput degrades gracefully",
	}
	t.Rows = append(t.Rows,
		[]string{"healthy", f0(gHealthy), itoa(exHealthy), pct(vHealthy)},
		[]string{"straggler", f0(gSlow), itoa(exSlow), pct(vSlow)},
	)
	return t
}
