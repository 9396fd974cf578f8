// Package linttest runs lint analyzers over want-comment fixtures, the
// way golang.org/x/tools/go/analysis/analysistest does: fixture
// packages live under the test's testdata/src directory, and a comment
//
//	// want "regexp"
//
// on a line asserts that the analyzer reports a diagnostic there whose
// message matches the regexp (several strings assert several
// diagnostics). Every diagnostic must be wanted and every want must be
// matched, so fixtures pin both the flagging and the suppression
// behaviour of an analyzer.
package linttest

import (
	"regexp"
	"strconv"
	"testing"

	"schemamap/internal/lint"
)

// Run loads the fixture packages (paths relative to testdata/src,
// "dir/..." patterns allowed) and checks a's diagnostics against the
// want comments.
//
//lint:testonly the analyzer fixture tests of internal/lint call it
func Run(t *testing.T, a *lint.Analyzer, pkgs ...string) {
	t.Helper()
	RunProgram(t, a, nil, pkgs...)
}

// RunProgram is Run with a configure hook that can adjust the loaded
// Program before analysis — regwire's tests use it to set WireRoots
// and ReadmePath, which fixture mode leaves empty.
func RunProgram(t *testing.T, a *lint.Analyzer, configure func(*lint.Program), pkgs ...string) {
	t.Helper()
	prog, err := lint.LoadProgram(lint.LoadConfig{Dir: "testdata/src"}, pkgs...)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", pkgs, err)
	}
	for _, e := range prog.TypeErrors {
		t.Errorf("fixture type error: %v", e)
	}
	if t.Failed() {
		t.Fatalf("fixtures for %s must typecheck", a.Name)
	}
	if configure != nil {
		configure(prog)
	}
	diags := lint.RunAnalyzers(prog, []*lint.Analyzer{a})

	wants := collectWants(t, prog)
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no %s diagnostic matching %q", w.file, w.line, a.Name, w.re)
		}
	}
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantRe extracts the expectation strings of a want comment: Go string
// literals, double- or back-quoted.
var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func collectWants(t *testing.T, prog *lint.Program) []*want {
	t.Helper()
	var wants []*want
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if len(c.Text) < 2 || c.Text[:2] != "//" {
						continue
					}
					body := c.Text[2:]
					for len(body) > 0 && (body[0] == ' ' || body[0] == '\t') {
						body = body[1:]
					}
					rest, ok := cutPrefix(body, "want ")
					if !ok {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					lits := wantRe.FindAllString(rest, -1)
					if len(lits) == 0 {
						t.Fatalf("%s: malformed want comment (no string literal): %s", pos, c.Text)
					}
					for _, lit := range lits {
						expr, err := strconv.Unquote(lit)
						if err != nil {
							t.Fatalf("%s: bad want literal %s: %v", pos, lit, err)
						}
						re, err := regexp.Compile(expr)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, expr, err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return wants
}

func cutPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return s, false
}
