package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"schemamap/internal/ibench"
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
// exit code, stdout and stderr.
func runMain(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MAPSELECT_RUN_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatal(err)
	return 0, "", ""
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
		code, _, stderr := runMain(t, append([]string{"-scenario", "does-not-exist.json"}, args...)...)
		if code != 2 || !strings.Contains(stderr, "finite and ≥ 0") || !strings.Contains(stderr, "Usage") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 with the weights error and usage", args, code, stderr)
		}
	}
	// Valid weights get past the check: the missing scenario fails it.
	if code, _, stderr := runMain(t, "-scenario", "does-not-exist.json", "-w1", "0"); code != 1 || strings.Contains(stderr, "weights") {
		t.Errorf("valid weights: exit %d, stderr %q; want exit 1 on the missing scenario", code, stderr)
	}
}

// -explain reports on the problem mapselect solved: its JIndex and
// cover options. A streamed run (-stream 4) ends on the full target,
// grown by appends, so when it selects the mappings the cold run
// selects it must report the same explained counts and the same number
// of erroneous chase tuples. The selections are compared first, so a
// solver that settles elsewhere after the warm-started re-solves fails
// on its own message. The scenario is the S one scenariogen writes for
// -n 7 -seed 7 -rows 10 -picorresp 20 -pierrors 10 -piunexplained 10.
func TestExplainAgreesWhenStreamed(t *testing.T) {
	cfg := ibench.DefaultConfig(7, 7)
	cfg.Rows, cfg.PiCorresp, cfg.PiErrors, cfg.PiUnexplained = 10, 20, 10, 10
	sc, err := ibench.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ibench.MarshalScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	explained := regexp.MustCompile(`(?m)^explained \d+/\d+ target tuples \(\d+ fully, \d+ partially\)$`)
	errs := regexp.MustCompile(`(?m)^erroneous chase tuples \(\d+\):$`)
	var selected [2]string
	var lines [2][2]string
	for i, extra := range [][]string{nil, {"-stream", "4"}} {
		code, stdout, stderr := runMain(t, append([]string{"-scenario", path, "-explain"}, extra...)...)
		if code != 0 {
			t.Fatalf("mapselect -explain %v: exit %d, stderr %q", extra, code, stderr)
		}
		// The selected mappings come first, one a line, ending at the
		// first blank line.
		end := strings.Index(stdout, "\n\n")
		if end < 0 {
			t.Fatalf("mapselect -explain %v printed no selection block:\n%s", extra, stdout)
		}
		selected[i] = stdout[:end]
		lines[i] = [2]string{explained.FindString(stdout), errs.FindString(stdout)}
		if lines[i][0] == "" {
			t.Fatalf("mapselect -explain %v printed no explained line:\n%s", extra, stdout)
		}
	}
	if selected[0] != selected[1] {
		t.Fatalf("the streamed run selects other mappings than the cold run:\ncold:\n%s\nstreamed:\n%s", selected[0], selected[1])
	}
	if lines[0] != lines[1] {
		t.Errorf("cold run reports %q, streamed run %q", lines[0], lines[1])
	}
}
