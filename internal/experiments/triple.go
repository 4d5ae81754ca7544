package experiments

import (
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/optimizer"
	"e3/internal/workload"
)

// tripleSpec describes the recurring experiment shape "vanilla vs naive EE
// vs E3, goodput per batch size".
type tripleSpec struct {
	id, title string
	names     [3]string
	vanilla   *ee.EEModel
	naive     *ee.EEModel
	dist      workload.Dist
	batches   []int
	mkCluster func() *cluster.Cluster
	slo       float64
	seed      int64
	e3mutate  func(*optimizer.Config)
	notes     string
}

// goodputTriple measures the three systems at one batch size. A zero means
// the configuration was infeasible (e.g. SLO-violating batch).
func goodputTriple(s tripleSpec, batch int) (van, naive, e3 float64) {
	van = system{kind: "dataparallel", model: s.vanilla}.maxGoodput(s.mkCluster, s.dist, batch, s.slo, s.seed)
	naive = system{kind: "dataparallel", model: s.naive}.maxGoodput(s.mkCluster, s.dist, batch, s.slo, s.seed)
	e3 = e3Goodput(s.mkCluster, s.naive, s.dist, batch, s.slo, s.seed, s.e3mutate)
	return van, naive, e3
}

// runTriple renders the standard three-system table.
func runTriple(s tripleSpec) Table {
	t := Table{
		ID:    s.id,
		Title: s.title,
		Columns: []string{"batch", s.names[0] + " (samples/s)", s.names[1] + " (samples/s)",
			s.names[2] + " (samples/s)", "E3/" + s.names[0], "E3/" + s.names[1]},
		Notes: s.notes,
	}
	for _, b := range s.batches {
		van, naive, e3 := goodputTriple(s, b)
		r1, r2 := 0.0, 0.0
		if van > 0 {
			r1 = e3 / van
		}
		if naive > 0 {
			r2 = e3 / naive
		}
		t.Rows = append(t.Rows, []string{itoa(b), f0(van), f0(naive), f0(e3), f2(r1), f2(r2)})
	}
	return t
}

// mix80 is the paper's predominant production-like workload.
func mix80() workload.Dist { return workload.Mix(0.8) }
