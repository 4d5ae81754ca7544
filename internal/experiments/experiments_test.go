package experiments

// Shape tests: each asserts the qualitative claims of a paper figure —
// who wins, roughly by how much, where crossovers fall — on the simulated
// substrate. Absolute values are not asserted (the substrate is not the
// authors' testbed).

import (
	"strconv"
	"testing"
)

// tables caches each experiment's table for the test process, so the
// shape tests and TestEveryExperimentRuns run every figure once.
var tables = map[string]Table{}

// table returns Run(id), computing it on first use.
func table(t *testing.T, id string) Table {
	t.Helper()
	if tab, ok := tables[id]; ok {
		return tab
	}
	tab, err := Run(id)
	if err != nil {
		t.Fatal(err)
	}
	tables[id] = tab
	return tab
}

func cell(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d); table %dx%d", tab.ID, row, col, len(tab.Rows), len(tab.Columns))
	}
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig02", "fig03", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
		"fig21", "fig22", "fig23", "fig24", "fig25", "fig26",
		"ablation-forecaster", "ablation-pipelining", "ablation-splits",
	}
	ids := IDs()
	got := make(map[string]bool, len(ids))
	for _, id := range ids {
		got[id] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if _, err := Run("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestFig02Shape(t *testing.T) {
	tab := table(t, "fig02")
	// Rows per dataset: BERT, BERT-EE, DistilBERT, DistilBERT-EE.
	for ds := 0; ds < 2; ds++ {
		base := ds * 4
		bertLat := cell(t, tab, base, 3)
		eeLat := cell(t, tab, base+1, 3)
		if eeLat > bertLat*0.75 {
			t.Errorf("row %d: BERT-EE latency %.1f%% of BERT, want ≥25%% saving", base+1, eeLat)
		}
		bertAcc := cell(t, tab, base, 2)
		eeAcc := cell(t, tab, base+1, 2)
		if drop := bertAcc - eeAcc; drop < 0.5 || drop > 3 {
			t.Errorf("row %d: EE accuracy drop %.2f, want mild (0.5-3)", base+1, drop)
		}
		distLat := cell(t, tab, base+2, 3)
		distEELat := cell(t, tab, base+3, 3)
		if distEELat >= distLat {
			t.Errorf("row %d: DistilBERT-EE latency %.1f not below DistilBERT %.1f", base+3, distEELat, distLat)
		}
	}
}

func TestFig03Shape(t *testing.T) {
	tab := table(t, "fig03")
	// Batch decays monotonically; by ramp 6 roughly half the inputs left;
	// utilization falls by >25% over the back half.
	prev := 9.0
	for r := 0; r < 12; r++ {
		b := cell(t, tab, r, 1)
		if b > prev+1e-9 {
			t.Fatalf("ramp %d: batch grew (%v after %v)", r+1, b, prev)
		}
		prev = b
	}
	mid := cell(t, tab, 5, 1) // ramp 6, QNLI
	if mid < 3 || mid > 6.5 {
		t.Errorf("QNLI batch at ramp 6 = %v, want ~half of 8", mid)
	}
	if u := cell(t, tab, 8, 2); u > 75 {
		t.Errorf("QNLI util at ramp 9 = %v%%, want collapsed below 75%%", u)
	}
}

func TestFig07Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := table(t, "fig07")
	// Batch 1 (row 0): DeeBERT beats BERT; E3 at or below DeeBERT.
	if dee, bert := cell(t, tab, 0, 2), cell(t, tab, 0, 1); dee <= bert {
		t.Errorf("batch 1: DeeBERT %v not above BERT %v", dee, bert)
	}
	if e3, dee := cell(t, tab, 0, 3), cell(t, tab, 0, 2); e3 > dee*1.05 {
		t.Errorf("batch 1: E3 %v should not beat DeeBERT %v (model-parallel penalty)", e3, dee)
	}
	// Batch 8 (row 3): BERT overtakes DeeBERT; E3 leads both by a healthy
	// factor (paper: 1.16x/1.44x).
	bert8, dee8, e38 := cell(t, tab, 3, 1), cell(t, tab, 3, 2), cell(t, tab, 3, 3)
	if dee8 >= bert8 {
		t.Errorf("batch 8: DeeBERT %v not below BERT %v (utilization collapse)", dee8, bert8)
	}
	if r := e38 / bert8; r < 1.1 || r > 2.3 {
		t.Errorf("batch 8: E3/BERT = %v, want within [1.1, 2.3]", r)
	}
	if r := e38 / dee8; r < 1.2 || r > 2.4 {
		t.Errorf("batch 8: E3/DeeBERT = %v, want within [1.2, 2.4]", r)
	}
	// E3 goodput grows with batch.
	for row := 1; row < 4; row++ {
		if cell(t, tab, row, 3) <= cell(t, tab, row-1, 3) {
			t.Errorf("E3 goodput not increasing at row %d", row)
		}
	}
}

func TestFig09Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := table(t, "fig09")
	// Compression complements E3: E3 above DistilBERT-EE from batch 2 on;
	// paper's headline 1.67x at larger batches sits in our band.
	last := len(tab.Rows) - 1
	if r := cell(t, tab, last, 5); r < 1.2 || r > 2.6 {
		t.Errorf("E3/DistilBERT-EE at largest batch = %v, want [1.2, 2.6]", r)
	}
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := table(t, "fig12")
	// The EE variant loses to vanilla at every batch (LM-head ramp cost);
	// E3 beats vanilla modestly.
	for row := range tab.Rows {
		van, eeV, e3 := cell(t, tab, row, 1), cell(t, tab, row, 2), cell(t, tab, row, 3)
		if eeV >= van {
			t.Errorf("row %d: Llama-EE %v not below vanilla %v", row, eeV, van)
		}
		if e3 < van {
			t.Errorf("row %d: E3 %v below vanilla %v", row, e3, van)
		}
		if e3 > van*1.6 {
			t.Errorf("row %d: E3 %v implausibly above vanilla %v (paper: ≤1.48x)", row, e3, van)
		}
	}
}

func TestFig20OptimizerLightweight(t *testing.T) {
	tab := table(t, "fig20")
	for row := range tab.Rows {
		for col := 1; col <= 2; col++ {
			if msV := cell(t, tab, row, col); msV > 5000 {
				t.Errorf("optimizer took %vms — not lightweight", msV)
			}
		}
	}
}

func TestFig21PredictionsTrackReality(t *testing.T) {
	tab := table(t, "fig21")
	// Mean absolute batch error at cut 1 over the ten windows must be
	// small relative to the input batch of 8.
	sum := 0.0
	for row := range tab.Rows {
		d := cell(t, tab, row, 1) - cell(t, tab, row, 2)
		if d < 0 {
			d = -d
		}
		sum += d
	}
	if mae := sum / float64(len(tab.Rows)); mae > 0.8 {
		t.Errorf("cut-1 batch MAE = %v of batch 8, want < 0.8", mae)
	}
}

func TestFig22ErrorToleranceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := table(t, "fig22")
	perfect := cell(t, tab, 0, 1)
	at20 := cell(t, tab, 2, 1)
	worst := cell(t, tab, len(tab.Rows)-1, 1)
	if loss := 1 - at20/perfect; loss > 0.15 {
		t.Errorf("20%% error loses %.0f%% goodput, want mild (<15%%)", loss*100)
	}
	if worst <= 0 {
		t.Error("100% error must still serve (correctness unaffected)")
	}
	if worst > perfect {
		t.Error("more error should not help")
	}
}

func TestFig25WrapperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := table(t, "fig25")
	for row := range tab.Rows {
		imp := cell(t, tab, row, 3)
		if imp < 2 || imp > 25 {
			t.Errorf("row %d: wrapper improvement %v%%, want within [2, 25]", row, imp)
		}
	}
}

func TestFig26ModelParallelShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := table(t, "fig26")
	for row := range tab.Rows {
		if r := cell(t, tab, row, 5); r < 1.3 {
			t.Errorf("row %d: MP on/off ratio %v, want ≥ 1.3", row, r)
		}
	}
}

func TestAblationForecasterShape(t *testing.T) {
	tab := table(t, "ablation-forecaster")
	arima := cell(t, tab, 0, 1)
	persist := cell(t, tab, 1, 1)
	if arima >= persist {
		t.Errorf("ARIMA trend MAE %v not below persistence %v", arima, persist)
	}
}

func TestAblationSplitsMonotone(t *testing.T) {
	tab := table(t, "ablation-splits")
	prev := 0.0
	for row := range tab.Rows {
		g := cell(t, tab, row, 1)
		if g < prev-1e-9 {
			t.Errorf("planned goodput decreased with split budget at row %d", row)
		}
		prev = g
	}
	// Splitting at all must pay: ≥2 splits beats 1.
	if cell(t, tab, 1, 1) <= cell(t, tab, 0, 1) {
		t.Error("2 splits not better than 1")
	}
}

func TestTablePrint(t *testing.T) {
	tab := Table{ID: "x", Title: "t", Columns: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}, Notes: "n"}
	var sb stringBuilder
	tab.Print(&sb)
	if sb.s == "" {
		t.Error("Print produced nothing")
	}
}

type stringBuilder struct{ s string }

func (b *stringBuilder) Write(p []byte) (int, error) {
	b.s += string(p)
	return len(p), nil
}
