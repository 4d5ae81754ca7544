package slo

// Edge cases of the attribution's open-request table that the observed
// golden never reaches: a request held open while thousands of later ids
// come and go (the ring's grow path), a drop before dispatch, a
// completion with no record, and compute on stages far from the dense
// range. The run's Dump is pinned byte for byte in
// testdata/slots.golden.json.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"e3/internal/workload"
)

var updateSlots = flag.Bool("update", false, "rewrite testdata/slots.golden.json")

// slotLater is how many ids arrive and complete while request 0 is open.
const slotLater = 3000

// slotScenario drives one attribution through the edge cases and returns
// it; every time is virtual and every id fixed, so the dump is stable.
func slotScenario(a *Attribution) *Attribution {
	held := sample(0, 0)
	a.Queued(held, 0)
	a.Dispatched(held, 0.1, 0)
	a.Executed(0, []workload.Sample{held}, 0.2, 0.3)
	a.Merged(held, 0.35, 1)

	// Later ids run in batches of three through one or two stages; the
	// stage numbers wander past the small range a pipeline uses.
	stages := []int{0, 1, 2, 5, 9, 70, -2}
	for lo := int64(1); lo <= slotLater; lo += 3 {
		at := 1 + float64(lo)*1e-3
		batch := make([]workload.Sample, 0, 3)
		for id := lo; id < lo+3 && id <= slotLater; id++ {
			s := sample(id, at)
			batch = append(batch, s)
			a.Queued(s, at)
			a.Dispatched(s, at+1e-4, 0)
		}
		st := stages[int(lo)%len(stages)]
		a.Executed(st, batch, at+2e-4, at+5e-4)
		if lo%2 == 0 {
			for _, s := range batch {
				a.Merged(s, at+6e-4, st+1)
				a.Dispatched(s, at+7e-4, st+1)
			}
			a.Executed(st+1, batch, at+8e-4, at+9e-4)
		}
		for i, s := range batch {
			a.Completed(s, at+1e-3+float64(i)*1e-5)
		}
	}

	// Dropped before it was ever dispatched.
	never := sample(slotLater+17, 5)
	a.Queued(never, 5)
	a.Dropped(never, 5.01)
	// Completed with no open record: the id must be flagged.
	a.Completed(sample(slotLater+10, 5), 5.02)

	a.Dispatched(held, 6, 1)
	a.Executed(1, []workload.Sample{held}, 6.1, 6.2)
	a.Completed(held, 6.3)
	return a
}

func TestAttributionSlotTableEdges(t *testing.T) {
	if slotLater <= 2*attrRingInit {
		t.Fatalf("scenario runs %d later ids; the grow path needs more than %d", slotLater, 2*attrRingInit)
	}
	a := slotScenario(NewAttribution(4))
	if a.Open() != 0 {
		t.Errorf("%d request(s) still open", a.Open())
	}
	if a.Mismatches() != 1 {
		t.Errorf("%d mismatches, want 1 (the completion with no record)", a.Mismatches())
	}

	got, err := json.MarshalIndent([]*Dump{a.Dump()}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	const golden = "testdata/slots.golden.json"
	if *updateSlots {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("attribution dumps differ from %s (regenerate with -update only for an intended change)", golden)
	}
}
