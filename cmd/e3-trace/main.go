// Command e3-trace generates and summarizes request arrival traces: the
// uniform and Poisson open-loop clients and the bursty Twitter-like trace
// of §5.7. Output is one arrival timestamp per line (seconds), with a
// summary on stderr.
//
// Usage:
//
//	e3-trace -kind bursty -rate 1000 -horizon 300 -seed 1 > trace.txt
//
// It also renders latency-attribution dumps exported by e3-bench
// -attr-out (top-k slowest requests with their critical-path component
// breakdowns):
//
//	e3-trace -attribute attr.json -topk 10
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"e3/internal/slo"
	"e3/internal/trace"
)

func main() {
	kind := flag.String("kind", "bursty", "trace kind: uniform, poisson, bursty")
	rate := flag.Float64("rate", 1000, "average request rate (req/s)")
	horizon := flag.Float64("horizon", 300, "trace duration (s)")
	seed := flag.Int64("seed", 1, "random seed")
	summary := flag.Bool("summary", false, "print only the summary")
	attribute := flag.String("attribute", "", "print the top-k slowest requests of a latency-attribution dump exported by e3-bench -attr-out, then exit")
	topk := flag.Int("topk", 10, "with -attribute: number of slowest requests to print")
	flag.Parse()

	// A negative size panics in the generators, and a negative Poisson rate
	// runs time backwards and never reaches the horizon.
	switch {
	case !(*rate > 0) || math.IsInf(*rate, 1):
		usage("-rate must be positive and finite (got %v)", *rate)
	case !(*horizon > 0) || math.IsInf(*horizon, 1):
		usage("-horizon must be positive and finite (got %v)", *horizon)
	case *topk < 0:
		usage("-topk must be ≥ 0 (got %d)", *topk)
	}

	if *attribute != "" {
		if err := printAttribution(*attribute, *topk); err != nil {
			fmt.Fprintln(os.Stderr, "e3-trace:", err)
			os.Exit(1)
		}
		return
	}

	var arr trace.Arrivals
	switch *kind {
	case "uniform":
		arr = trace.Uniform(*rate, *horizon)
	case "poisson":
		arr = trace.Poisson(*rate, *horizon, *seed)
	case "bursty":
		arr = trace.Bursty(trace.DefaultBursty(*rate), *horizon, *seed)
	default:
		usage("unknown kind %q", *kind)
	}

	if !*summary {
		w := bufio.NewWriter(os.Stdout)
		for _, at := range arr {
			fmt.Fprintf(w, "%.6f\n", at)
		}
		w.Flush()
	}
	fmt.Fprintf(os.Stderr, "e3-trace: %d arrivals over %.0fs (avg %.1f req/s, burstiness CV²=%.1f)\n",
		len(arr), *horizon, arr.Rate(*horizon), arr.Burstiness())
}

// usage reports a command-line mistake and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e3-trace: "+format+"\n", args...)
	os.Exit(2)
}

// printAttribution reads an attribution dump (e3-bench -attr-out) and
// prints aggregate component totals plus the top-k slowest requests with
// their per-component critical-path milliseconds.
func printAttribution(path string, topk int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var dump slo.Dump
	if err := json.NewDecoder(f).Decode(&dump); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	fmt.Printf("attribution: %d completed, %d dropped, %d breakdowns folded, %d sum mismatches (max residual %.3g s)\n",
		dump.Completed, dump.Dropped, dump.Attributed, dump.Mismatches, dump.MaxResidual)
	fmt.Println("component totals (critical-path seconds across attributed requests):")
	for _, c := range dump.Components {
		if c.Count == 0 {
			continue
		}
		fmt.Printf("  %-11s n=%-8d total=%.3fs mean=%.2fms\n",
			c.Component, c.Count, c.TotalS, c.TotalS/float64(c.Count)*1e3)
	}
	if len(dump.ComputeByStage) > 0 {
		fmt.Println("compute by split:")
		for _, sc := range dump.ComputeByStage {
			fmt.Printf("  split %-3d n=%-8d total=%.3fs mean=%.2fms\n",
				sc.Stage, sc.Count, sc.TotalS, sc.TotalS/float64(sc.Count)*1e3)
		}
	}

	slowest := dump.Slowest
	if topk < len(slowest) {
		slowest = slowest[:topk]
	}
	fmt.Printf("top %d slowest requests:\n", len(slowest))
	for i, b := range slowest {
		fmt.Printf("  #%-3d req %-8d e2e=%.2fms (t=%.4fs..%.4fs)\n",
			i+1, b.ID, b.E2E()*1e3, b.Arrival, b.Completion)
		var byComp [slo.NumComponents]float64
		for _, p := range b.Parts {
			byComp[p.Comp] += p.End - p.Start
		}
		for comp, total := range byComp {
			if total == 0 {
				continue
			}
			fmt.Printf("       %-11s %8.2fms  (%4.1f%%)\n",
				slo.Component(comp), total*1e3, total/b.E2E()*100)
		}
	}
	return nil
}
