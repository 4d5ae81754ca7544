package fleet

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/digests.golden")

// overloadConfig is HeteroConfig(2, ·) with every tenant's rate raised
// eightfold over a 5 s horizon: far past what the fleet planned for, so
// the router's front door sheds a large share of the arrivals.
func overloadConfig(workers int) Config {
	cfg := HeteroConfig(2, workers)
	cfg.Horizon = 5
	for i := range cfg.Tenants {
		cfg.Tenants[i].Rate *= 8
	}
	return cfg
}

// goldenRuns names the fleets whose digests testdata/digests.golden pins.
// The tiny fleet is recorded in full; the larger ones as one sha256 per
// shard plus the router log, with the door totals in the clear.
var goldenRuns = []struct {
	name string
	full bool
	cfg  func(workers int) Config
}{
	{"tinyConfig(1) 4s", true, func(w int) Config { return tinyConfig(1, w) }},
	{"HeteroConfig(4) 10s", false, func(w int) Config {
		cfg := HeteroConfig(4, w)
		cfg.Horizon = 10
		return cfg
	}},
	{"HeteroConfig(2) rate x8 5s", false, overloadConfig},
}

// goldenText runs every golden fleet at the given worker count and
// renders the digests the golden file holds.
func goldenText(t *testing.T, workers int) string {
	t.Helper()
	var b strings.Builder
	for _, g := range goldenRuns {
		res, err := Run(g.cfg(workers))
		if err != nil {
			t.Fatalf("%s workers %d: %v", g.name, workers, err)
		}
		fmt.Fprintf(&b, "== %s minted=%d routed=%d door_shed=%d events=%d\n",
			g.name, res.Minted, res.Routed, res.DoorShed, res.Events)
		if g.full {
			b.WriteString(res.Digests())
			continue
		}
		for _, sr := range res.Shards {
			fmt.Fprintf(&b, "shard %d sha256=%x\n", sr.Index, sha256.Sum256([]byte(sr.Digest)))
		}
		fmt.Fprintf(&b, "router sha256=%x\n", sha256.Sum256([]byte(res.RouterDigest)))
	}
	return b.String()
}

// TestFleetDigestsGolden pins the fleet's simulated behaviour to a file
// instead of to another run of the same code: the determinism tests
// compare parallel with serial, so a change to minting or routing moves
// both sides at once and would still pass. Every worker count must
// reproduce the file byte for byte, including the door-shedding fleet.
func TestFleetDigestsGolden(t *testing.T) {
	const golden = "testdata/digests.golden"
	for _, workers := range []int{1, 2, 4, 8} {
		got := goldenText(t, workers)
		if *updateGolden && workers == 1 {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Fatalf("workers %d: fleet digests differ from %s (regenerate with -update only for an intended change)\ngot:\n%.600s",
				workers, golden, got)
		}
	}
}

// TestFleetDoorShed drives the overloaded fleet through the front door:
// arrivals must be shed there, the door must conserve, and every stack's
// ledger must have seen exactly what the router sent it.
func TestFleetDoorShed(t *testing.T) {
	res, err := Run(overloadConfig(2))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.DoorShed == 0 {
		t.Fatalf("overloaded fleet shed nothing at the door (minted %d)", res.Minted)
	}
	if res.Minted != res.Routed+res.DoorShed {
		t.Fatalf("door leak: minted %d != routed %d + shed %d", res.Minted, res.Routed, res.DoorShed)
	}
	routed := 0
	for _, sr := range res.Shards {
		for _, tr := range sr.Tenants {
			routed += tr.Routed
		}
	}
	if routed != res.Routed {
		t.Fatalf("per-stack routed sums to %d, router counted %d", routed, res.Routed)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Verify must catch a stack whose ledger saw other than it was sent.
	res.Shards[0].Tenants[0].Arrived++
	if res.Verify() == nil {
		t.Fatal("Verify accepted a stack with ledger arrived != routed")
	}
	t.Logf("minted=%d routed=%d door_shed=%d", res.Minted, res.Routed, res.DoorShed)
}
