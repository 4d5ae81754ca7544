package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"e3/internal/audit"
	"e3/internal/experiments"
	"e3/internal/fleet"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// smoke test re-executes it with E3_BENCHMARK_MAIN=1, and the child
// processes it starts inherit that.
func TestMain(m *testing.M) {
	if os.Getenv("E3_BENCHMARK_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

var equivalenceSeeds = []int64{1, 42, 97}

// TestClusterPathsSimulateOneRun holds the three ways the cluster-*
// workloads can run — RunSimBench, the stack handed to
// serving.RunOpenLoopStream, and the traced self-driven loop — to one
// simulated run: byte-identical ledger digests and identical virtual
// metrics. It is what lets the traced run stand for the untraced one.
func TestClusterPathsSimulateOneRun(t *testing.T) {
	for _, seed := range equivalenceSeeds {
		for _, rate := range []float64{overloadRate, steadyRate} {
			cfg := clusterConfig(rate, 5, seed)
			ref, err := experiments.RunSimBench(cfg)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := experiments.PlanSimBench(cfg)
			if err != nil {
				t.Fatal(err)
			}
			untraced, err := newClusterStack(cfg, plan, audit.NewSampledLedger(cfg.AuditStride), false)
			if err != nil {
				t.Fatal(err)
			}
			if err := untraced.serve(); err != nil {
				t.Fatal(err)
			}
			traced, err := newClusterStack(cfg, plan, audit.NewSampledLedger(cfg.AuditStride), true)
			if err != nil {
				t.Fatal(err)
			}
			traced.runTraced()

			want := digest(ref.Digest)
			for name, s := range map[string]*clusterStack{"untraced": untraced, "traced": traced} {
				out := s.outcome()
				if len(out.Failures) > 0 {
					t.Errorf("seed %d rate %v %s: %v", seed, rate, name, out.Failures)
				}
				if out.Digest != want {
					t.Errorf("seed %d rate %v %s: digest %.12s, RunSimBench %.12s", seed, rate, name, out.Digest, want)
				}
				if out.Requests != ref.Requests || out.Completions != ref.Completed || out.Events != ref.Events ||
					out.Goodput != ref.Goodput || s.coll.Lat.Summarize() != ref.Latency || s.coll.Dropped != ref.Dropped {
					t.Errorf("seed %d rate %v %s: virtual metrics differ from RunSimBench:\n%+v\n%+v", seed, rate, name, out, ref)
				}
			}
			if u, tr := untraced.outcome(), traced.outcome(); u.P50 != tr.P50 || u.P999 != tr.P999 {
				t.Errorf("seed %d rate %v: latency quantiles differ: %v/%v vs %v/%v", seed, rate, u.P50, u.P999, tr.P50, tr.P999)
			}
		}
	}
}

// TestFleetWorkersSimulateOneRun: fleet-hetero at one and two shard
// workers must give byte-identical digests.
func TestFleetWorkersSimulateOneRun(t *testing.T) {
	for _, seed := range equivalenceSeeds {
		one, err := fleet.Run(fleetConfig(4, 1, 5, seed))
		if err != nil {
			t.Fatal(err)
		}
		two, err := fleet.Run(fleetConfig(4, 2, 5, seed))
		if err != nil {
			t.Fatal(err)
		}
		if one.Digests() != two.Digests() {
			t.Errorf("seed %d: fleet digests differ between 1 and 2 workers", seed)
		}
		if out := fleetOutcome(one.Config, one); out.Completions == 0 || out.P50 <= 0 {
			t.Errorf("seed %d: no latencies read from the fleet's ledger digests: %+v", seed, out)
		}
	}
}

// TestSmoke runs the whole benchmark at smoke length — every workload,
// one rep, traced — through its command-line entry point, child
// processes included.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload and probe")
	}
	out := filepath.Join(t.TempDir(), "smoke.json")
	cmd := exec.Command(os.Args[0], "-smoke", "-out", out)
	cmd.Env = append(os.Environ(), "E3_BENCHMARK_MAIN=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("smoke run failed: %v\n%s", err, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Fatalf("smoke result: %+v", last)
	}
	if want := len(workloads) * len(perLayer); len(last.Metrics) != want {
		t.Errorf("smoke reported %d metrics, want %d", len(last.Metrics), want)
	}
	var rep report
	if err := readJSON(out, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) || rep.Host.NumCPU == 0 {
		t.Errorf("-out file incomplete: %d workloads, host %+v", len(rep.Workloads), rep.Host)
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and the metric tables
// here naming the same workloads and metrics.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		name       string
		json, code []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", c.name, len(c.json), len(c.code))
			continue
		}
		for i := range c.json {
			if c.json[i] != c.code[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", c.name, i, c.json[i], c.code[i])
			}
		}
	}
}

// Reference values from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	tight := metricSummary{Median: 100, Q1: 99, Q3: 101, Values: []float64{99, 100, 101}}
	wide := metricSummary{Median: 100, Q1: 80, Q3: 120, Values: []float64{80, 100, 120}}
	at := func(vals ...float64) metricSummary {
		_, m, _ := quartiles(vals)
		return metricSummary{Median: m, Values: vals}
	}
	for _, c := range []struct {
		base, change metricSummary
		better, want string
	}{
		{tight, at(100, 101, 102), "higher", "same"},
		{tight, at(80, 85, 88), "higher", "worse"},
		{tight, at(80, 85, 88), "lower", "better"},
		{wide, at(80, 85, 88), "lower", "unresolved"},
		{wide, at(130, 140, 150), "higher", "better"},
	} {
		if got := verdict(c.base, c.change, 0.1, c.better); got != c.want {
			t.Errorf("verdict(%v -> %v, %s) = %s, want %s", c.base.Values, c.change.Values, c.better, got, c.want)
		}
	}
}

func TestLedgerLatencies(t *testing.T) {
	d := "shard 0\ntenant a\ntotals arrived=3 completed=2 dropped=1\n" +
		"100: arrived@1.5 queued@1.5 dispatched@1.51(s0,i1) completed@1.625(x4)\n" +
		"200: arrived@2 queued@2 dropped@2.1(admission)\n" +
		"router minted=3 routed=3 shed=0\nepoch 0 end=1\n"
	got := ledgerLatencies(d)
	if len(got) != 1 || got[0] != 0.125 {
		t.Errorf("ledgerLatencies = %v, want [0.125]", got)
	}
}
