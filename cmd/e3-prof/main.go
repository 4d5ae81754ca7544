// Command e3-prof inspects virtual-time compute profiles exported by
// e3-bench -flame-out (or GET /v1/flame).
//
// Usage:
//
//	e3-prof profile.json              # accounting summary + top stacks
//	e3-prof -top 40 profile.json      # more stacks
//	e3-prof -tree profile.json        # hierarchical frame tree
//	e3-prof -focus split=2 p.json     # only stacks containing that frame
//	e3-prof -diff a.json b.json       # signed per-stack GPU-time deltas
//
// The summary table proves the fold is exhaustive: per device it prints
// busy, overlap, excess, and bubble time against the profile horizon, and
// the accounted column is exactly 100.000% when the conservation identity
// busy − overlap − excess + bubble == horizon holds (the flamegate
// enforces a zero integer-nanosecond residual).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"e3/internal/flame"
)

func main() {
	top := flag.Int("top", 20, "number of stacks (or diff entries) to print")
	tree := flag.Bool("tree", false, "print the hierarchical frame tree instead of the flat top list")
	diff := flag.Bool("diff", false, "compare two profiles (args: a.json b.json); positive deltas mean B has more")
	focus := flag.String("focus", "", "only count stacks containing this exact frame (e.g. split=2, dev=V100-3, transfer-blocked)")
	flag.Parse()

	if *top < 0 {
		fmt.Fprintf(os.Stderr, "e3-prof: -top must be ≥ 0 (got %d)\n", *top)
		os.Exit(2)
	}
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "e3-prof: -diff wants exactly two profile paths")
			os.Exit(2)
		}
		os.Exit(runDiff(os.Stdout, flag.Arg(0), flag.Arg(1), *top))
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "e3-prof: want exactly one profile path (or -diff a b)")
		os.Exit(2)
	}
	pr, err := readProfile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "e3-prof:", err)
		os.Exit(1)
	}
	if *focus != "" {
		pr = focusProfile(pr, *focus)
	}
	printSummary(pr)
	if *tree {
		printTree(pr)
	} else {
		printTop(pr, *top)
	}
}

func readProfile(path string) (*flame.Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return flame.ReadProfile(f)
}

// focusProfile keeps only stacks containing the frame, written either in
// the folded spelling ("split:2") or flag-friendly k=v ("split=2").
func focusProfile(pr *flame.Profile, frame string) *flame.Profile {
	alt := frame
	if i := strings.IndexByte(frame, '='); i >= 0 {
		alt = frame[:i] + ":" + frame[i+1:]
	}
	out := &flame.Profile{
		Schema: pr.Schema, StartS: pr.StartS, EndS: pr.EndS,
		Stacks: map[string]int64{}, Devices: pr.Devices,
	}
	for stack, w := range pr.Stacks {
		for _, f := range flame.SplitStack(stack) {
			if f == frame || f == alt {
				out.Stacks[stack] = w
				out.TotalNanos += w
				break
			}
		}
	}
	return out
}

func secs(n int64) float64 { return float64(n) / 1e9 }

// printSummary prints the per-device accounting table. The accounted
// column is (busy − overlap − excess + bubble)/horizon: exactly 100.000%
// per device when the profile reconciled with zero residual.
func printSummary(pr *flame.Profile) {
	fmt.Printf("profile: %.3fs virtual window [%g, %g), %d devices, %d stacks\n\n",
		pr.EndS-pr.StartS, pr.StartS, pr.EndS, len(pr.Devices), len(pr.Stacks))
	if len(pr.Devices) == 0 {
		return
	}
	fmt.Printf("%-12s %-10s %-9s %-9s %-10s %-10s %s\n",
		"device", "busy(s)", "ovl(s)", "exc(s)", "bubble(s)", "horizon(s)", "accounted")
	var tb, to, tx, tg, th int64
	for _, d := range pr.Devices {
		acct := 0.0
		if d.HorizonNanos > 0 {
			acct = 100 * float64(d.BusyNanos-d.OverlapNanos-d.ExcessNanos+d.BubbleNanos) / float64(d.HorizonNanos)
		}
		fmt.Printf("%-12s %-10.3f %-9.3f %-9.3f %-10.3f %-10.3f %.3f%%\n",
			d.ID, secs(d.BusyNanos), secs(d.OverlapNanos), secs(d.ExcessNanos),
			secs(d.BubbleNanos), secs(d.HorizonNanos), acct)
		tb += d.BusyNanos
		to += d.OverlapNanos
		tx += d.ExcessNanos
		tg += d.BubbleNanos
		th += d.HorizonNanos
	}
	acct := 0.0
	if th > 0 {
		acct = 100 * float64(tb-to-tx+tg) / float64(th)
	}
	fmt.Printf("%-12s %-10.3f %-9.3f %-9.3f %-10.3f %-10.3f %.3f%%\n\n",
		"total", secs(tb), secs(to), secs(tx), secs(tg), secs(th), acct)
}

func printTop(pr *flame.Profile, n int) {
	type entry struct {
		stack string
		w     int64
	}
	entries := make([]entry, 0, len(pr.Stacks))
	var total int64
	for k, w := range pr.Stacks {
		if w > 0 {
			entries = append(entries, entry{k, w})
			total += w
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].w != entries[j].w {
			return entries[i].w > entries[j].w
		}
		return entries[i].stack < entries[j].stack
	})
	fmt.Printf("top %d of %d stacks by virtual GPU-time:\n", min(n, len(entries)), len(entries))
	fmt.Printf("%-12s %-8s %s\n", "weight(s)", "share", "stack")
	for i, e := range entries {
		if i >= n {
			fmt.Printf("  ... %d more stacks\n", len(entries)-n)
			break
		}
		fmt.Printf("%-12.6f %-8s %s\n", secs(e.w),
			fmt.Sprintf("%.2f%%", 100*float64(e.w)/float64(total)),
			strings.Join(flame.SplitStack(e.stack), ";"))
	}
}

// treeNode aggregates weight over a frame prefix.
type treeNode struct {
	name     string
	self     int64 // weight of stacks ending exactly here
	total    int64 // weight of all stacks passing through here
	children map[string]*treeNode
	order    []string
}

func (t *treeNode) child(name string) *treeNode {
	if c, ok := t.children[name]; ok {
		return c
	}
	c := &treeNode{name: name, children: map[string]*treeNode{}}
	t.children[name] = c
	t.order = append(t.order, name)
	return c
}

func printTree(pr *flame.Profile) {
	root := &treeNode{children: map[string]*treeNode{}}
	for stack, w := range pr.Stacks {
		if w <= 0 {
			continue
		}
		node := root
		node.total += w
		for _, f := range flame.SplitStack(stack) {
			node = node.child(f)
			node.total += w
		}
		node.self += w
	}
	fmt.Printf("frame tree (%0.3fs total):\n", secs(root.total))
	var walk func(t *treeNode, depth int)
	walk = func(t *treeNode, depth int) {
		sort.Slice(t.order, func(i, j int) bool {
			a, b := t.children[t.order[i]], t.children[t.order[j]]
			if a.total != b.total {
				return a.total > b.total
			}
			return a.name < b.name
		})
		for _, name := range t.order {
			c := t.children[name]
			self := ""
			if c.self > 0 && len(c.children) > 0 {
				self = fmt.Sprintf(" (self %.3fs)", secs(c.self))
			}
			fmt.Printf("%*s%s %.3fs%s\n", depth*2, "", name, secs(c.total), self)
			walk(c, depth+1)
		}
	}
	walk(root, 1)
}

// runDiff prints to w the signed per-stack GPU-time deltas from profile A
// to profile B, largest |delta| first; errors go to stderr.
func runDiff(w io.Writer, pathA, pathB string, top int) int {
	a, err := readProfile(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e3-prof:", err)
		return 1
	}
	b, err := readProfile(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e3-prof:", err)
		return 1
	}
	d := flame.Diff(a, b)
	fmt.Fprintf(w, "diff: A=%s (%.3fs) vs B=%s (%.3fs); %.3fs of GPU-time moved\n",
		pathA, secs(d.ATotalNanos), pathB, secs(d.BTotalNanos), secs(d.MovedNanos))
	for i, e := range d.Entries {
		if i >= top {
			fmt.Fprintf(w, "  ... %d more stacks changed\n", len(d.Entries)-top)
			break
		}
		fmt.Fprintf(w, "  %+12.6fs  (a %10.6fs -> b %10.6fs)  %s\n",
			secs(e.DeltaNanos), secs(e.ANanos), secs(e.BNanos),
			strings.Join(flame.SplitStack(e.Stack), ";"))
	}
	if len(d.Entries) == 0 {
		fmt.Fprintln(w, "  profiles are identical")
	}
	return 0
}
