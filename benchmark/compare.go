package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -compare applies.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compare prints one verdict per workload × end-to-end metric of change
// against base, then every digest that changed and the per-layer ratios.
// It returns how many rows are worse.
func compare(specPath, basePath, changePath string, w io.Writer) (int, error) {
	var spec benchSpec
	var base, change report
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {basePath, &base}, {changePath, &change}} {
		if err := readJSON(f.path, f.v); err != nil {
			return 0, err
		}
	}
	changed := make(map[string]*workloadReport)
	for _, wr := range change.Workloads {
		changed[wr.Name] = wr
	}
	fmt.Fprintf(w, "base   %s: %d-core host, GOMAXPROCS %d, %s, revision %s\n", basePath, base.Host.NumCPU, base.Host.GOMAXPROCS, base.Host.GoVersion, base.Host.Revision)
	fmt.Fprintf(w, "change %s: %d-core host, GOMAXPROCS %d, %s, revision %s\n\n", changePath, change.Host.NumCPU, change.Host.GOMAXPROCS, change.Host.GoVersion, change.Host.Revision)

	worse := 0
	var notes []string
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median\tbase q1..q3\tchange median\tchange/base\tbound\tverdict")
	for _, b := range base.Workloads {
		c, ok := changed[b.Name]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: missing from %s", b.Name, changePath))
			continue
		}
		if b.Seed != c.Seed {
			notes = append(notes, fmt.Sprintf("%s: seeds differ (%d vs %d); the runs are not comparable", b.Name, b.Seed, c.Seed))
		}
		if b.Digest != c.Digest {
			notes = append(notes, fmt.Sprintf("%s: digest %.16s -> %.16s: simulated behaviour changed", b.Name, b.Digest, c.Digest))
		}
		for _, m := range spec.EndToEnd {
			sb, sc := b.EndToEnd[m.Name], c.EndToEnd[m.Name]
			v := verdict(sb, sc, m.Bound, m.Better)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g..%.6g\t%.6g\t%s\t%g\t%s\n",
				b.Name, m.Name, m.Unit, sb.Median, sb.Q1, sb.Q3, sc.Median, ratio(sc.Median, sb.Median), m.Bound, v)
		}
	}
	tw.Flush()
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}

	fmt.Fprintln(w, "\nper-layer (traced runs; no bound)")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tchange\tchange/base")
	for _, b := range base.Workloads {
		c, ok := changed[b.Name]
		if !ok || b.PerLayer == nil || c.PerLayer == nil {
			continue
		}
		for _, m := range perLayer {
			lb, lc := b.PerLayer[m.Name], c.PerLayer[m.Name]
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%s\n", b.Name, m.Name, m.Unit, lb.Value, lc.Value, ratio(lc.Value, lb.Value))
		}
	}
	tw.Flush()
	return worse, nil
}

func ratio(change, base float64) string {
	if base == 0 {
		return "n/a (base 0)"
	}
	return fmt.Sprintf("%.4f", change/base)
}

// verdict applies a metric's bound: worse or better when the medians
// differ by more than bound × the base median, unresolved when the base's
// own q1..q3 spread is wider than that — unless every change rep beats
// every base rep — and same otherwise.
func verdict(base, change metricSummary, bound float64, better string) string {
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	scale := math.Abs(base.Median)
	if scale == 0 {
		if change.Median == base.Median {
			return "same"
		}
		return "unresolved"
	}
	gain := sign * (change.Median - base.Median) / scale
	if (base.Q3-base.Q1)/scale > bound {
		if allBeat(change.Values, base.Values, sign) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case gain < -bound:
		return "worse"
	case gain > bound:
		return "better"
	}
	return "same"
}

// allBeat reports whether every value of xs is better than every value of
// ys in direction sign.
func allBeat(xs, ys []float64, sign float64) bool {
	if len(xs) == 0 || len(ys) == 0 {
		return false
	}
	for _, x := range xs {
		for _, y := range ys {
			if sign*(x-y) <= 0 {
				return false
			}
		}
	}
	return true
}
