package audit

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// Bulk samples take ids [bulkBase, bulkBase+bulkSamples), four to six
// events each: even the stride-7 ledger writes more run words than one
// store page holds, and waves interleave samples so several are open at
// once and runs cross page boundaries.
const (
	bulkBase    = 1000
	bulkSamples = 30_000
	bulkWave    = 8
)

// scriptLedger drives l through every storage edge case: id 0, negative
// ids, sparse ids far beyond the dense range, events before Arrived, a
// double terminal, unknown drop reasons, a dispatch-stage regression, and
// a clean bulk stream longer than one run-store page. Ids that are multiples
// of 7 exercise the same cases on a stride-7 ledger.
func scriptLedger(l *Ledger) {
	// id 0: a clean two-stage completion.
	l.Arrived(0, 0)
	l.Queued(0, 0.001)
	dispatched(l, 0, 0.002, 0, 3)
	merged(l, 0, 0.004, 1)
	dispatched(l, 0, 0.005, 1, 6)
	l.Completed(0, 0.009, 12)
	// Negative ids.
	l.Arrived(-7, 0.5)
	l.Dropped(-7, 0.5, ReasonAdmission)
	l.Arrived(-3, 0.6)
	l.Queued(-3, 0.6)
	dispatched(l, -3, 0.7, 0, 1)
	l.Dropped(-3, 0.9, ReasonStaleShed)
	// Sparse ids: 1<<40 is untracked at stride 7, 7<<40 is tracked.
	for _, id := range []int64{1 << 40, 7 << 40} {
		l.Arrived(id, 1)
		l.Queued(id, 1.001)
		dispatched(l, id, 1.002, 0, 2)
		l.Completed(id, 1.01, 4)
	}
	// Events before Arrived.
	l.Queued(21, 2.0)
	l.Arrived(21, 2.0)
	l.Completed(21, 2.1, 3)
	// Double terminal.
	l.Arrived(28, 3)
	l.Completed(28, 3.1, 2)
	l.Dropped(28, 3.2, ReasonSLAFlush)
	// Unknown and empty drop reasons.
	l.Arrived(35, 4)
	l.Dropped(35, 4.1, "mystery")
	l.Arrived(36, 4)
	l.Dropped(36, 4.2, "")
	// Dispatch-stage regression.
	l.Arrived(42, 5)
	dispatched(l, 42, 5.1, 1, 0)
	dispatched(l, 42, 5.2, 0, 3)
	l.Completed(42, 5.3, 6)
	// A sample that never terminates, its timestamps going backwards.
	l.Arrived(49, 6)
	l.Queued(49, 5.9)

	for w := int64(0); w < bulkSamples; w += bulkWave {
		at := 10 + float64(w)*0.001
		first, end := bulkBase+w, bulkBase+w+bulkWave
		for id := first; id < end; id++ {
			l.Arrived(id, at)
		}
		for id := first; id < end; id++ {
			l.Queued(id, at+0.0001)
		}
		for id := first; id < end; id++ {
			dispatched(l, id, at+0.0002, 0, int(id%4))
		}
		for id := first; id < end; id++ {
			switch id % 11 {
			case 0:
				l.Dropped(id, at+0.0005, ReasonStaleShed)
			case 5:
				merged(l, id, at+0.0004, 1)
				dispatched(l, id, at+0.0005, 1, int(id%4)+4)
				l.Completed(id, at+0.0008, 12)
			default:
				l.Completed(id, at+0.0005, int(id%6)+1)
			}
		}
	}
}

// goldenText renders what the golden file pins for one ledger: Samples,
// the verification report verbatim, the digest's hash and size, and the
// digest lines of every non-bulk sample verbatim.
func goldenText(l *Ledger) string {
	d := l.Digest()
	var b strings.Builder
	fmt.Fprintf(&b, "samples: %d\n", l.Samples())
	fmt.Fprintf(&b, "verify: %s\n", l.Verify().String())
	fmt.Fprintf(&b, "digest: sha256 %x, %d bytes\n", sha256.Sum256([]byte(d)), len(d))
	for _, line := range strings.SplitAfter(d, "\n") {
		if head, _, ok := strings.Cut(line, ":"); ok {
			if id, err := strconv.ParseInt(head, 10, 64); err == nil && id >= bulkBase && id < bulkBase+bulkSamples {
				continue
			}
		}
		b.WriteString(line)
	}
	return b.String()
}

// TestLedgerGolden pins the ledger's observable semantics (Samples,
// Verify().String() and Digest()) on the scripted stream, for an
// exhaustive and a stride-7 ledger. Regenerate with -update only when the
// semantics are meant to change.
func TestLedgerGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ledger *Ledger
	}{
		{"exhaustive", NewLedger()},
		{"stride7", NewSampledLedger(7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scriptLedger(tc.ledger)
			got := goldenText(tc.ledger)
			path := filepath.Join("testdata", "ledger_"+tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("ledger %s drifted from %s:\n--- got:\n%s\n--- want:\n%s", tc.name, path, got, want)
			}
		})
	}
}
