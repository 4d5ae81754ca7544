package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

const tablesGoldenPath = "testdata/tables.golden"

// wallClockTables are the experiments whose rows time real work on the
// wall clock, so their CSV differs from run to run and is not pinned.
var wallClockTables = map[string]bool{"fig20": true}

// TestEveryExperimentRuns executes the entire registry once and checks the
// structural invariants every table must satisfy: a title, columns, at
// least one row, and row widths matching the header. Every deterministic
// table's CSV must also match testdata/tables.golden byte for byte.
// Regenerate with `go test ./internal/experiments/ -run TestEveryExperimentRuns -update`
// only for an intended behaviour change. It is the regression net for
// the whole harness; skipped under -short.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full evaluation (~90s)")
	}
	want := map[string]string{}
	if !*updateGolden {
		raw, err := os.ReadFile(tablesGoldenPath)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		want = parseTablesGolden(string(raw))
	}
	var golden strings.Builder
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab := table(t, id)
			if tab.ID != id {
				t.Errorf("table ID %q != registry id %q", tab.ID, id)
			}
			if tab.Title == "" || len(tab.Columns) == 0 {
				t.Error("missing title or columns")
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Errorf("row %d has %d cells, header has %d", i, len(row), len(tab.Columns))
				}
				for j, cellVal := range row {
					if cellVal == "" {
						t.Errorf("row %d col %d empty", i, j)
					}
				}
			}
			if wallClockTables[id] {
				return
			}
			var csv bytes.Buffer
			tab.CSV(&csv)
			golden.WriteString("== " + id + "\n" + csv.String())
			if *updateGolden {
				return
			}
			if w, ok := want[id]; !ok {
				t.Errorf("%s has no entry in %s (regenerate with -update)", id, tablesGoldenPath)
			} else if csv.String() != w {
				t.Errorf("table drifted from %s:\n got:\n%s want:\n%s", tablesGoldenPath, csv.String(), w)
			}
		})
	}
	if *updateGolden {
		if err := os.WriteFile(tablesGoldenPath, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// parseTablesGolden splits the golden file into each table's CSV, keyed
// by experiment id; every table starts at a "== <id>" line.
func parseTablesGolden(raw string) map[string]string {
	out := map[string]string{}
	id := ""
	for _, line := range strings.SplitAfter(raw, "\n") {
		if name, ok := strings.CutPrefix(line, "== "); ok {
			id = strings.TrimSuffix(name, "\n")
			out[id] = ""
			continue
		}
		out[id] += line
	}
	return out
}
