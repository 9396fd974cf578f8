package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs mapselect's main instead of the tests when the
// re-executed test binary is asked to, so tests can observe its exit
// status and output.
func TestMain(m *testing.M) {
	if os.Getenv("MAPSELECT_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs mapselect with args in a child process and returns its
// exit code and stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MAPSELECT_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

// Negative or non-finite weights are a usage error (exit 2), reported
// before the scenario is even read.
func TestInvalidWeightsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-w1", "-1"},
		{"-w2", "-0.5"},
		{"-w3", "NaN"},
		{"-w1", "+Inf"},
	} {
		code, stderr := runMain(t, append([]string{"-scenario", "does-not-exist.json"}, args...)...)
		if code != 2 || !strings.Contains(stderr, "finite and ≥ 0") || !strings.Contains(stderr, "Usage") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 with the weights error and usage", args, code, stderr)
		}
	}
	// Valid weights get past the check: the missing scenario fails it.
	if code, stderr := runMain(t, "-scenario", "does-not-exist.json", "-w1", "0"); code != 1 || strings.Contains(stderr, "weights") {
		t.Errorf("valid weights: exit %d, stderr %q; want exit 1 on the missing scenario", code, stderr)
	}
}
