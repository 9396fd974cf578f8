package lint

import (
	"go/ast"
	"go/token"
)

// Seqbump checks that every exported method on Problem that mutates
// instance/evidence state — the fields the incremental layer snapshots
// by sequence number — bumps the mutation sequence (p.mutSeq) on every
// return path that runs after the first mutation. A mutating method that returns without a bump leaves
// retained groundings, warm starts, and server caches silently stale:
// they compare sequence numbers, conclude "unchanged", and serve
// results for a problem that no longer exists.
//
// Mutations counted: writes to the evidence-bearing fields (I, J,
// Candidates, incidence, jidx) through the receiver — direct
// assignment, indexed assignment, and Add/Remove/Clear method calls on
// those fields. Bumps counted: p.mutSeq.Add and p.mutSeq.Store; a Load
// reads the sequence without moving it, so it is not a bump.
var Seqbump = &Analyzer{
	Name: "seqbump",
	Doc:  "mutating Problem methods must bump the mutation sequence on every return path",
	Run:  runSeqbump,
}

// seqMutFields are the Problem fields whose writes invalidate retained
// state keyed by the mutation sequence.
var seqMutFields = map[string]bool{
	"I":          true,
	"J":          true,
	"Candidates": true,
	"incidence":  true,
	"jidx":       true,
}

// seqMutMethods are the container methods that mutate (rather than
// read) a field; p.I.Len() is not a mutation, p.I.Add(t) is.
var seqMutMethods = map[string]bool{
	"Add":    true,
	"Remove": true,
	"Clear":  true,
}

func runSeqbump(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv == nil || !fn.Name.IsExported() {
				continue
			}
			recvName, ok := receiverOfType(pass, fn, "Problem")
			if !ok || recvName == "" {
				continue
			}
			checkSeqbump(pass, fn, recvName)
		}
	}
}

// receiverOfType reports whether fn's receiver is (a pointer to) the
// named type, returning the receiver's binding name.
func receiverOfType(pass *Pass, fn *ast.FuncDecl, typeName string) (string, bool) {
	if len(fn.Recv.List) != 1 {
		return "", false
	}
	recv := fn.Recv.List[0]
	tn := namedOf(pass.Pkg.Info.TypeOf(recv.Type))
	if tn == nil || tn.Name() != typeName {
		return "", false
	}
	if len(recv.Names) == 0 {
		return "", false // unnamed receiver cannot mutate instance state
	}
	return recv.Names[0].Name, true
}

func checkSeqbump(pass *Pass, fn *ast.FuncDecl, recv string) {
	var (
		firstMut token.Pos = token.NoPos
		bumps    []token.Pos
		rets     []*ast.ReturnStmt
	)
	mutate := func(pos token.Pos) {
		if firstMut == token.NoPos || pos < firstMut {
			firstMut = pos
		}
	}
	// recvField matches `recv.F` for a mutation-tracked F.
	recvField := func(e ast.Expr) (string, bool) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		x, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || x.Name != recv {
			return "", false
		}
		return sel.Sel.Name, seqMutFields[sel.Sel.Name]
	}
	// mutTarget matches `recv.F` or `recv.F[...]` assignment targets.
	mutTarget := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if idx, ok := e.(*ast.IndexExpr); ok {
			e = idx.X
		}
		_, ok := recvField(e)
		return ok
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if mutTarget(lhs) {
					mutate(s.Pos())
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := ast.Unparen(inner.X).(*ast.Ident)
			if !ok || x.Name != recv {
				return true
			}
			field, method := inner.Sel.Name, sel.Sel.Name
			switch {
			case field == "mutSeq" && (method == "Add" || method == "Store"):
				bumps = append(bumps, s.Pos())
			case seqMutFields[field] && seqMutMethods[method]:
				mutate(s.Pos())
			}
		case *ast.ReturnStmt:
			rets = append(rets, s)
		}
		return true
	})

	if firstMut == token.NoPos {
		return // method does not mutate tracked state
	}
	if len(bumps) == 0 {
		pass.Reportf(fn.Name.Pos(), "exported method %s mutates Problem evidence state but never bumps mutSeq — retained groundings and caches will serve stale results", fn.Name.Name)
		return
	}
	bumpBefore := func(end token.Pos) bool {
		for _, b := range bumps {
			if b < end {
				return true
			}
		}
		return false
	}
	for _, ret := range rets {
		if ret.End() <= firstMut {
			continue // early return before any mutation
		}
		if !bumpBefore(ret.End()) {
			pass.Reportf(ret.Pos(), "return path after Problem mutation without a mutSeq bump in %s", fn.Name.Name)
		}
	}
}
