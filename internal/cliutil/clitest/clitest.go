// Package clitest runs a command's main function in a child process, so a
// command's tests can check its exit code and output as a user sees them,
// without building the command first: the test binary re-executes itself
// under the program name childName and, seeing that name, calls main
// instead of the tests.
package clitest

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// childName is the program name (argv[0]) of a test binary started by Run.
const childName = "clitest-main"

// Main is a command's TestMain: in a child started by Run it calls main
// and exits 0 if main returns; otherwise it runs the tests.
func Main(m *testing.M, main func()) {
	if os.Args[0] == childName {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run runs the command with args and returns its exit code and standard
// error. It fails t if the command panics or is still running after
// timeout.
func Run(t *testing.T, timeout time.Duration, args ...string) (code int, stderr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.CommandContext(ctx, self)
	cmd.Args = append([]string{childName}, args...)
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	err = cmd.Run()
	stderr = errBuf.String()
	if ctx.Err() != nil {
		t.Fatalf("%v: still running after %v", args, timeout)
	}
	if cmd.ProcessState == nil {
		t.Fatalf("%v: %v", args, err)
	}
	if strings.Contains(stderr, "panic:") || strings.Contains(stderr, "goroutine ") {
		t.Fatalf("%v panicked:\n%s", args, stderr)
	}
	return cmd.ProcessState.ExitCode(), stderr
}
