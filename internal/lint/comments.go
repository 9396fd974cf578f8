package lint

// Annotation grammar (docs/ANALYSIS.md): a comment of the form
//
//	//lint:<kind> <reason>
//
// on the flagged line or the line directly above it suppresses the
// matching analyzer's finding. The reason is mandatory — an annotation
// without one is itself a diagnostic, so blanket suppressions cannot
// accumulate. Kinds in use:
//
//	//lint:commutative <reason>       detrange: loop body is order-independent
//	//lint:wallclock <reason>         nondet: time.Now is timing-only, not result-affecting
//	//lint:guarded-by-caller <reason>  guardlock: every caller holds the named mutex
//	//lint:testonly <reason>          deadexport: only other packages' tests use this export
import (
	"go/ast"
	"go/token"
	"strings"
)

type note struct {
	kind   string
	reason string
	line   int
	pos    token.Pos
}

const notePrefix = "lint:"

// buildNotes indexes every //lint: annotation of a file set by
// filename and line.
func buildNotes(fset *token.FileSet, files []*ast.File) map[string]map[int][]note {
	notes := make(map[string]map[int][]note)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+notePrefix)
				if !ok {
					continue
				}
				kind, reason, _ := strings.Cut(text, " ")
				p := fset.Position(c.Pos())
				byLine := notes[p.Filename]
				if byLine == nil {
					byLine = make(map[int][]note)
					notes[p.Filename] = byLine
				}
				byLine[p.Line] = append(byLine[p.Line], note{
					kind:   strings.TrimSpace(kind),
					reason: strings.TrimSpace(reason),
					line:   p.Line,
					pos:    c.Pos(),
				})
			}
		}
	}
	return notes
}

// noteAt returns the //lint:<kind> annotation covering pos — on the
// same line or the line directly above.
func (pkg *Package) noteAt(pos token.Pos, kind string) (note, bool) {
	p := pkg.fset.Position(pos)
	byLine := pkg.notes[p.Filename]
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for _, n := range byLine[line] {
			if n.kind == kind {
				return n, true
			}
		}
	}
	return note{}, false
}

// suppressed reports whether a //lint:<kind> annotation covers pos. An
// annotation without a reason does not suppress — it is reported
// instead, so every suppression in the tree carries its justification.
func (p *Pass) suppressed(pos token.Pos, kind string) bool {
	n, ok := p.Pkg.noteAt(pos, kind)
	if !ok {
		return false
	}
	if n.reason == "" {
		p.Reportf(n.pos, "//lint:%s annotation requires a reason", kind)
		return false
	}
	return true
}
