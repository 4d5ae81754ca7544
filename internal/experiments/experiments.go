// Package experiments regenerates every table and figure of the paper's
// evaluation (§2 and §5). Each figNN.go holds one runner; the registry
// maps experiment IDs to runners so cmd/e3-bench and the root benchmark
// harness can execute them individually or en masse.
//
// Absolute numbers differ from the paper (the substrate is an analytical
// simulator, not the authors' testbed); the *shapes* — who wins, by what
// rough factor, where crossovers fall — are the reproduction target and
// are asserted in experiments_test.go.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/workload"
)

// Table is one experiment's printable result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
}

// Print renders the table as aligned text.
func (t Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Columns)
	for _, row := range t.Rows {
		printRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "  note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// CSV renders the table as RFC-4180-ish CSV (header row first) for
// downstream plotting.
func (t Table) CSV(w io.Writer) {
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			fmt.Fprint(w, c)
		}
		fmt.Fprintln(w)
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
}

// Runner produces one experiment's table.
type Runner func() Table

var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// IDs lists registered experiments in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string) (Table, error) {
	r, ok := registry[id]
	if !ok {
		return Table{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return r(), nil
}

// ---- shared measurement machinery ----

// Defaults mirror the paper's setup.
const (
	defaultSLO = 0.100
	// probeHorizon is virtual seconds per goodput probe; short enough to
	// keep experiments fast, long enough to reach steady state.
	probeHorizon = 2.0
	// probeTol is the tolerated bad (dropped/violated) fraction.
	probeTol = 0.01
	// upperRate bounds the goodput binary search.
	upperRate = 60000
)

// system is one of the compared serving systems, named as RunDemo names
// its runners: "pipeline" (E3's split pipeline under plan),
// "dataparallel" (the vanilla and naive-EE baselines' eager runner on
// every device; plan unused) or "serial" (the §5.8.7 phase-synchronized
// ablation under plan).
type system struct {
	kind  string
	model *ee.EEModel
	plan  optimizer.Plan
}

// build constructs the system's runner on the given engine, cluster and
// collector.
func (s system) build(eng *sim.Engine, clus *cluster.Cluster, coll *scheduler.Collector) (scheduler.Runner, error) {
	switch s.kind {
	case "pipeline":
		return scheduler.NewPipeline(eng, clus, s.model, s.plan, coll)
	case "dataparallel":
		devs := make([]int, clus.Size())
		for i := range devs {
			devs[i] = i
		}
		return scheduler.NewDataParallel(eng, clus, s.model, devs, coll)
	case "serial":
		return scheduler.NewSerial(eng, clus, s.model, s.plan, coll), nil
	}
	return nil, fmt.Errorf("experiments: unknown runner %q (want pipeline, dataparallel or serial)", s.kind)
}

// est is the batcher's service-time estimate for the system: the plan's
// latency, or a fixed 30 ms for the data-parallel runner, which has none.
func (s system) est() float64 {
	if s.kind == "dataparallel" {
		return 0.030
	}
	return s.plan.Latency
}

// maxGoodput returns the system's sustained goodput on fresh clusters
// from mk (serving.MaxGoodput's closed-loop probe).
func (s system) maxGoodput(mk func() *cluster.Cluster, dist workload.Dist, batch int, slo float64, seed int64) float64 {
	build := func() (*sim.Engine, scheduler.Runner) {
		eng := sim.NewEngine()
		r, err := s.build(eng, mk(), scheduler.NewCollector(s.model.Base.NumLayers(), slo, 0))
		if err != nil {
			panic(err)
		}
		return eng, r
	}
	gen := func() *workload.Generator { return workload.NewGenerator(dist, seed) }
	g, err := serving.MaxGoodput(build, gen, batch, slo, probeHorizon, upperRate, probeTol)
	if err != nil {
		panic(err)
	}
	return g
}

// planE3 computes an E3 plan for the given setting.
func planE3(clus *cluster.Cluster, m *ee.EEModel, dist workload.Dist, batch int, slo float64, mutate func(*optimizer.Config)) (optimizer.Plan, error) {
	prof := profile.FromDist(m, dist, 8000, 1)
	cfg := optimizer.NewConfig(m, prof, batch, clus, slo)
	if mutate != nil {
		mutate(&cfg)
	}
	return optimizer.MaximizeGoodput(cfg)
}

// e3Goodput plans and measures in one step, returning 0 when no feasible
// plan exists (e.g. the batch violates the SLO).
func e3Goodput(mk func() *cluster.Cluster, m *ee.EEModel, dist workload.Dist, batch int, slo float64, seed int64, mutate func(*optimizer.Config)) float64 {
	plan, err := planE3(mk(), m, dist, batch, slo, mutate)
	if err != nil {
		return 0
	}
	return system{kind: "pipeline", model: m, plan: plan}.maxGoodput(mk, dist, batch, slo, seed)
}

func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func itoa(v int) string    { return fmt.Sprintf("%d", v) }
func ms(v float64) string  { return fmt.Sprintf("%.1f", v*1e3) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
