// Command benchmark measures what the E3 reproduction costs its host —
// wall time, CPU, memory and set-up per simulated request — on four
// fixed workloads, checks that every run simulated correctly, and prices
// each layer from outside in a separate traced run.
//
// Every rep runs in a fresh child process (this binary re-executed with
// -child), round-robin across the workloads; end-to-end metrics are
// medians over reps. See README.md for the workloads, the metrics, and
// how to compare two runs.
//
//	bash benchmark/run.sh                          # all workloads, 3 reps + traced pass
//	bash benchmark/run.sh -out a.json              # ... and keep the full results
//	bash benchmark/run.sh -compare a.json,b.json   # verdict per workload × metric
//	bash benchmark/run.sh -smoke                   # every workload short, one rep, traced
//	bash benchmark/run.sh --workload cluster-steady --seed 3 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// options is one invocation's plan.
type options struct {
	workloads []workloadDef
	// seed overrides every workload's default seed when ≥ 0.
	seed int64
	// Reps continue round-robin until at least minReps rounds and
	// seconds of wall time have passed.
	seconds float64
	minReps int
	traced  bool
	scale   float64
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	names := fs.String("workload", "", "comma-separated workloads (default: all)")
	seed := fs.Int64("seed", -1, "workload seed (default: each workload's own)")
	seconds := fs.Float64("seconds", 0, "keep starting reps until this much wall time has passed")
	reps := fs.Int("reps", 3, "minimum reps per workload")
	traceFlag := fs.Int("trace", 1, "1 adds the traced per-layer run; the last line then reports per-layer metrics")
	smoke := fs.Bool("smoke", false, "every workload at 1/5 scale, one rep, traced")
	out := fs.String("out", "", "write the full results as JSON to this file")
	cmp := fs.String("compare", "", "base.json,change.json: compare two -out files against BENCHMARK.json's bounds")
	child := fs.String("child", "", "internal: run one rep or traced run in this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp != "" {
		base, change, ok := strings.Cut(*cmp, ",")
		if !ok {
			fmt.Fprintln(os.Stderr, "benchmark: -compare wants base.json,change.json")
			return 2
		}
		worse, err := compare("BENCHMARK.json", base, change, stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if worse > 0 {
			return 1
		}
		return 0
	}

	opts := options{seed: *seed, seconds: *seconds, minReps: max(1, *reps), traced: *traceFlag != 0, scale: 1}
	if *smoke {
		opts.scale, opts.minReps, opts.seconds, opts.traced = 0.2, 1, 0, true
	}
	if *names == "" {
		opts.workloads = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			w, ok := workloadByName(n)
			if !ok {
				fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", n)
				return 2
			}
			opts.workloads = append(opts.workloads, w)
		}
	}
	if *child != "" {
		return runChildJob(*child, opts, stdout)
	}
	rep := runSuite(opts)
	printReport(stdout, rep)
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(lastLine(rep, opts.traced))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func (o options) seedFor(w workloadDef) int64 {
	if o.seed >= 0 {
		return o.seed
	}
	return w.seed
}

// runChildJob is the child side: one rep or one traced run of one
// workload, printed as a single JSON line.
func runChildJob(kind string, opts options, stdout io.Writer) int {
	if len(opts.workloads) != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -child needs exactly one -workload")
		return 2
	}
	w := opts.workloads[0]
	var res any
	switch kind {
	case "rep":
		res = w.rep(opts.seedFor(w), opts.scale)
	case "traced":
		res = tracedJob(w, opts.seedFor(w), opts.scale)
	default:
		fmt.Fprintf(os.Stderr, "benchmark: unknown -child %q\n", kind)
		return 2
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// report is the whole run, as -out writes it and -compare reads it.
type report struct {
	Host      host              `json:"host"`
	Scale     float64           `json:"scale"`
	Seconds   float64           `json:"seconds"`
	MinReps   int               `json:"min_reps"`
	Workloads []*workloadReport `json:"workloads"`
	Correct   bool              `json:"correct"`
}

type workloadReport struct {
	Name   string `json:"name"`
	Seed   int64  `json:"seed"`
	Digest string `json:"digest"`
	// Completions is the latency sample count behind the quantiles.
	Completions int                      `json:"completions"`
	Reps        []repResult              `json:"reps"`
	EndToEnd    map[string]metricSummary `json:"end_to_end"`
	Traced      *tracedResult            `json:"traced,omitempty"`
	PerLayer    map[string]layerValue    `json:"per_layer,omitempty"`
	Failures    []string                 `json:"failures"`
	// Attempted and Failed count requests simulated, and those in runs
	// that failed a check.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

type metricSummary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runSuite runs the reps round-robin, each in a fresh child, then one
// traced child per workload.
func runSuite(opts options) *report {
	rep := &report{Host: hostFacts(), Scale: opts.scale, Seconds: opts.seconds, MinReps: opts.minReps, Correct: true}
	for _, w := range opts.workloads {
		rep.Workloads = append(rep.Workloads, &workloadReport{Name: w.name, Seed: opts.seedFor(w)})
	}
	start := time.Now()
	for round := 1; ; round++ {
		for i, w := range opts.workloads {
			var r repResult
			if err := runChild(&r, childArgs("rep", w, opts)...); err != nil {
				r = repResult{outcome: failed(err)}
			}
			rep.Workloads[i].Reps = append(rep.Workloads[i].Reps, r)
		}
		if round >= opts.minReps && time.Since(start).Seconds() >= opts.seconds {
			break
		}
	}
	for i, w := range opts.workloads {
		wr := rep.Workloads[i]
		if opts.traced {
			var t tracedResult
			if err := runChild(&t, childArgs("traced", w, opts)...); err != nil {
				t = tracedResult{outcome: failed(err)}
			}
			wr.Traced = &t
		}
		wr.summarize()
		rep.Correct = rep.Correct && len(wr.Failures) == 0
	}
	return rep
}

func childArgs(kind string, w workloadDef, opts options) []string {
	args := []string{"-child", kind, "-workload", w.name, "-seed", fmt.Sprint(opts.seedFor(w))}
	if opts.scale != 1 {
		args = append(args, "-smoke")
	}
	return args
}

// summarize folds the reps and the traced run into medians, quartiles and
// checks.
func (wr *workloadReport) summarize() {
	perRep := make([]map[string]float64, len(wr.Reps))
	for i, r := range wr.Reps {
		perRep[i] = endToEndValues(r)
		n := max(1, r.Requests)
		wr.Attempted += n
		if len(r.Failures) > 0 {
			wr.Failed += n
			for _, f := range r.Failures {
				wr.fail("rep %d: %s", i+1, f)
			}
			continue
		}
		if wr.Digest == "" {
			wr.Digest, wr.Completions = r.Digest, r.Completions
		} else if r.Digest != wr.Digest {
			wr.fail("rep %d simulated a different run than rep 1 (digest %.12s vs %.12s)", i+1, r.Digest, wr.Digest)
		}
	}
	wr.EndToEnd = make(map[string]metricSummary)
	for _, m := range endToEnd {
		var vals []float64
		for _, v := range perRep {
			if x, ok := v[m.Name]; ok {
				vals = append(vals, wr.finite(m.Name, x))
			}
		}
		q1, med, q3 := quartiles(vals)
		wr.EndToEnd[m.Name] = metricSummary{Unit: m.Unit, Better: m.Better, Median: med, Q1: q1, Q3: q3, Values: vals}
	}

	t := wr.Traced
	if t == nil {
		return
	}
	n := max(1, t.Requests)
	wr.Attempted += n
	if len(t.Failures) > 0 {
		wr.Failed += n
		for _, f := range t.Failures {
			wr.fail("traced: %s", f)
		}
	} else if t.Digest != wr.Digest {
		wr.fail("traced run simulated a different run than the reps (digest %.12s vs %.12s)", t.Digest, wr.Digest)
	}
	// Compare wall time per request scaled to the reference host, so the
	// host's speed at the two moments drops out.
	untraced := make([]float64, 0, len(wr.Reps))
	for _, r := range wr.Reps {
		untraced = append(untraced, r.WallS/r.speed()/float64(max(1, r.Requests)))
	}
	layers := make(map[string]float64, len(t.Layers)+1)
	for k, v := range t.Layers {
		layers[k] = v
	}
	layers["bench.trace_overhead_pct"] = (t.WallS/t.Speed/float64(n)/median(untraced) - 1) * 100
	wr.PerLayer = make(map[string]layerValue)
	for _, m := range perLayer {
		v, ok := layers[m.Name]
		if !ok {
			wr.fail("traced run did not report %s", m.Name)
		}
		wr.PerLayer[m.Name] = layerValue{Value: wr.finite(m.Name, v), Unit: m.Unit}
	}
}

func (wr *workloadReport) fail(format string, args ...any) {
	wr.Failures = append(wr.Failures, fmt.Sprintf(format, args...))
}

// finite passes v through, or records the metric as broken and reports 0:
// JSON has no NaN or infinity.
func (wr *workloadReport) finite(name string, v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		wr.fail("%s is %v", name, v)
		return 0
	}
	return v
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]layerValue `json:"metrics"`
}

// lastLine reports end-to-end medians, or with tracing the per-layer
// metrics. A run of several workloads prefixes each name with its
// workload.
func lastLine(rep *report, traced bool) resultLine {
	out := resultLine{Correct: rep.Correct, Metrics: make(map[string]layerValue)}
	for _, wr := range rep.Workloads {
		out.Attempted += wr.Attempted
		out.Failed += wr.Failed
		prefix := ""
		if len(rep.Workloads) > 1 {
			prefix = wr.Name + "/"
		}
		if traced {
			for k, v := range wr.PerLayer {
				out.Metrics[prefix+k] = v
			}
			continue
		}
		for k, s := range wr.EndToEnd {
			out.Metrics[prefix+k] = layerValue{Value: s.Median, Unit: s.Unit}
		}
	}
	return out
}

func printReport(w io.Writer, rep *report) {
	h := rep.Host
	fmt.Fprintf(w, "host: GOMAXPROCS=%d NumCPU=%d %s %s/%s revision %s\n", h.GOMAXPROCS, h.NumCPU, h.GoVersion, h.OS, h.Arch, h.Revision)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n== %s  seed %d  reps %d  digest %.16s  latency samples %d\n", wr.Name, wr.Seed, len(wr.Reps), wr.Digest, wr.Completions)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "  metric\tunit\tmedian\tq1\tq3")
		for _, m := range endToEnd {
			s := wr.EndToEnd[m.Name]
			fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%.6g\t%.6g\n", m.Name, m.Unit, s.Median, s.Q1, s.Q3)
		}
		if wr.PerLayer != nil {
			fmt.Fprintln(tw, "  per-layer (traced run)\t\t\t\t")
			for _, m := range perLayer {
				fmt.Fprintf(tw, "  %s\t%s\t%.6g\t\t\n", m.Name, m.Unit, wr.PerLayer[m.Name].Value)
			}
		}
		tw.Flush()
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", f)
		}
	}
	verdict := "all checks passed"
	if !rep.Correct {
		verdict = "CHECKS FAILED"
	}
	fmt.Fprintf(w, "\n%s\n", verdict)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
