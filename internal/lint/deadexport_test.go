package lint_test

import (
	"testing"

	"schemamap/internal/lint"
	"schemamap/internal/lint/linttest"
)

func TestDeadexport(t *testing.T) {
	linttest.RunProgram(t, lint.Deadexport, func(prog *lint.Program) { prog.Whole = true }, "deadexport/...")
}

// A partial load cannot prove an export unused: with Program.Whole
// unset (vettool mode, or a package subset) the analyzer stands down.
func TestDeadexportPartialLoad(t *testing.T) {
	prog, err := lint.LoadProgram(lint.LoadConfig{Dir: "testdata/src"}, "deadexport/internal/a")
	if err != nil {
		t.Fatal(err)
	}
	if diags := lint.RunAnalyzers(prog, []*lint.Analyzer{lint.Deadexport}); len(diags) != 0 {
		t.Fatalf("partial load reported %d diagnostics, want 0: %+v", len(diags), diags)
	}
}
