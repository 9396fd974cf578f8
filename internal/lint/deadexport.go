package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Deadexport reports exported functions and methods declared under an
// internal/ directory that no non-test file of the program uses. An
// internal package has no callers outside the module, so an export
// nothing ships with is either dead or a test helper. Uses resolve
// through types.Info.Uses across every loaded package, the declaring
// one included. Methods that let their receiver satisfy an interface
// the program can see are exempt (they are called through it). A
// method of a type that a package outside internal/ re-exports by
// alias is not: an alias makes the type public, not each of its
// methods, so such a method needs a use like any other. A helper kept
// for other packages' tests carries //lint:testonly <reason>.
//
// Only a whole-program load can prove an export unused, so the check
// runs in the Finish hook and stands down unless Program.Whole is set.
var Deadexport = &Analyzer{
	Name:   "deadexport",
	Doc:    "exported functions and methods under internal/ must have a non-test use",
	Finish: finishDeadexport,
}

func finishDeadexport(prog *Program) []Diagnostic {
	if !prog.Whole {
		return nil
	}
	used := make(map[*types.Func]bool)
	for _, pkg := range prog.Pkgs {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
	ifaces := interfacesByMethod(prog)
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		if !internal(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil || used[fn] {
					continue
				}
				if r := fn.Type().(*types.Signature).Recv(); r != nil {
					recv := namedOf(r.Type())
					if recv == nil || implementsAny(types.NewPointer(recv.Type()), ifaces[fn.Name()]) {
						continue
					}
				}
				msg := fn.FullName() + " is exported but no non-test code uses it: delete it, move it to a _test.go file, or mark it //lint:testonly <reason>"
				if n, ok := pkg.noteAt(fd.Pos(), "testonly"); ok {
					if n.reason != "" {
						continue
					}
					msg = "//lint:testonly annotation on " + fn.Name() + " requires a reason"
				}
				diags = append(diags, Diagnostic{Analyzer: "deadexport", Pos: fd.Name.Pos(), Message: msg})
			}
		}
	}
	return diags
}

func internal(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}

// interfacesByMethod indexes, by method name, every interface the
// program can see: those written in the loaded packages (anonymous
// ones included) and those declared at package scope anywhere in
// their import closure, such as fmt.Stringer.
func interfacesByMethod(prog *Program) map[string][]*types.Interface {
	byName := make(map[string][]*types.Interface)
	added := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() || added[it] {
			return
		}
		added[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range prog.Pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			add(tv.Type)
		}
	}
	return byName
}

func implementsAny(t types.Type, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if types.Implements(t, it) {
			return true
		}
	}
	return false
}
