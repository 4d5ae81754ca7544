package main

import (
	"testing"
	"time"

	"e3/internal/cliutil/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestModeFlagsNeedTheirMode gives each mode-only flag without its mode:
// every one must exit 2 with a one-line message instead of being ignored.
func TestModeFlagsNeedTheirMode(t *testing.T) {
	values := map[string]string{"slo-target": "0.9", "burn-threshold": "2", "fleet-workers": "2"}
	for name, mode := range modeFlags {
		v, ok := values[name]
		if !ok {
			t.Fatalf("no test value for -%s", name)
		}
		code, stderr := clitest.Run(t, 20*time.Second, "-"+name, v)
		want := "e3-serve: -" + name + " needs -" + mode[0] + " (it only configures that mode)\n"
		if code != 2 || stderr != want {
			t.Errorf("-%s %s: exit %d, stderr %q; want exit 2 and %q", name, v, code, stderr, want)
		}
	}
}
