// Package lint is the project's static-analysis suite: five analyzers
// that mechanically enforce the invariants the differential tests only
// catch after the fact — deterministic iteration in result-affecting
// packages (detrange), mutex coverage of guarded fields (guardlock),
// mutation-sequence bumps on every evidence-mutating return path
// (seqbump), no wall-clock or global randomness inside solver call
// graphs (nondet), and registry/wiring/README agreement for registered
// solvers (regwire). cmd/mapvet drives them over the repository and
// gates CI; docs/ANALYSIS.md documents each analyzer and the
// annotation grammar.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, want-comment fixtures) but is self-contained on the standard
// library's go/ast + go/types, with stdlib imports typechecked from
// GOROOT source — the repository deliberately has no module
// dependencies. If x/tools ever becomes available, the analyzers port
// mechanically: each Run takes a Pass with Files/TypesInfo/Report.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
)

// Diagnostic is one finding, attributed to the analyzer that made it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Analyzer is one named check. Run inspects a single package; Finish,
// when set, runs once after every package has been analyzed and sees
// the whole Program (regwire's cross-package wiring checks live
// there). Either may be nil, not both.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
	// Finish runs whole-program checks after all per-package passes.
	Finish func(*Program) []Diagnostic
}

// Analyzers returns the suite in stable order. cmd/mapvet runs exactly
// this list, and cmd/docscheck verifies docs/ANALYSIS.md documents
// exactly these names.
func Analyzers() []*Analyzer {
	return []*Analyzer{Detrange, Guardlock, Seqbump, Nondet, Regwire}
}

// Package is one loaded, typechecked package.
type Package struct {
	Path  string // import path
	Name  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	fset  *token.FileSet
	notes map[string]map[int][]note // filename → line → annotations
}

// Program is a set of loaded packages plus the whole-program context
// the Finish hooks need.
type Program struct {
	Fset       *token.FileSet
	Pkgs       []*Package // deterministic (sorted import path) order
	RootDir    string     // module root; "" when unknown (vettool mode)
	ModulePath string
	TypeErrors []error

	// WireRoots are the import paths regwire requires every registered
	// solver to be reachable from (empty disables the reachability
	// check — e.g. when mapvet runs on a subset of packages).
	WireRoots []string
	// ReadmePath is the solver-documentation file regwire audits
	// registered names against ("" disables that check).
	ReadmePath string

	byPath map[string]*Package
}

// Package returns the loaded package with the given import path, or
// nil.
func (prog *Program) Package(path string) *Package {
	return prog.byPath[path]
}

// NewProgram assembles a Program from already-built packages; the
// loader and the vettool driver both funnel through it.
func NewProgram(fset *token.FileSet, pkgs []*Package) *Program {
	prog := &Program{Fset: fset, Pkgs: pkgs, byPath: make(map[string]*Package, len(pkgs))}
	for _, p := range pkgs {
		prog.byPath[p.Path] = p
	}
	return prog
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Fset returns the program's file set.
func (p *Pass) Fset() *token.FileSet { return p.Prog.Fset }

// RunAnalyzers runs the given analyzers over every package of prog,
// then the Finish hooks, and returns the diagnostics sorted by
// position. It is deterministic: same program, same output.
func RunAnalyzers(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	sink := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range prog.Pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			a.Run(&Pass{Analyzer: a, Prog: prog, Pkg: pkg, report: sink})
		}
	}
	for _, a := range analyzers {
		if a.Finish != nil {
			diags = append(diags, a.Finish(prog)...)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := prog.Fset.Position(diags[i].Pos), prog.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	return diags
}

// resultPackages are the result-affecting package basenames detrange
// and nondet scope to: anything whose output feeds solver iterates,
// evidence, shard decomposition, or quality scores. Matching is by
// path basename so analysistest fixtures opt in by directory name.
var resultPackages = map[string]bool{
	"core":    true,
	"cover":   true,
	"psl":     true,
	"shard":   true,
	"quality": true,
	"chase":   true,
	"clio":    true,
	"ibench":  true,
}

func resultAffecting(pkg *Package) bool {
	return resultPackages[path.Base(pkg.Path)]
}

// calleeOf resolves a call expression to the invoked *types.Func
// (package function or method), or nil for indirect/builtin calls.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// namedOf strips pointers and returns the defining TypeName of t, or
// nil for unnamed types.
func namedOf(t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}
