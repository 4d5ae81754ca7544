package main

import (
	"strings"
	"testing"
	"time"

	"e3/internal/cliutil/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestRejectsBadArgs feeds every out-of-range value: each must exit 2
// with a one-line message, never panic in a generator or run without end.
func TestRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-kind", "uniform", "-rate", "-5"},
		{"-kind", "uniform", "-horizon", "-1"},
		{"-kind", "poisson", "-rate", "-5"},
		{"-kind", "poisson", "-rate", "0"},
		{"-kind", "bursty", "-horizon", "NaN"},
		{"-kind", "uniform", "-rate", "+Inf"},
		{"-attribute", "missing.json", "-topk", "-1"},
		{"-kind", "zipf"},
	} {
		code, stderr := clitest.Run(t, 20*time.Second, args...)
		if code != 2 || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "e3-trace: ") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and one e3-trace line", args, code, stderr)
		}
	}
}
