package psl

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// equivPrograms builds a spread of programs + databases exercising
// joins, constants, negation, priors, hard rules, squared hinges and
// repeated variables.
func equivPrograms() []struct {
	name string
	prog *Program
	db   *Database
} {
	var out []struct {
		name string
		prog *Program
		db   *Database
	}
	add := func(name string, prog *Program, db *Database) {
		out = append(out, struct {
			name string
			prog *Program
			db   *Database
		}{name, prog, db})
	}

	{ // The selection-style program of the grounding benchmark.
		p := NewProgram()
		p.MustAddPredicate("Covers", 2, Closed)
		p.MustAddPredicate("In", 1, Open)
		p.MustAddPredicate("Explained", 1, Open)
		p.MustAddRule("1.5: Covers(M, T) & In(M) -> Explained(T)")
		p.MustAddRule("0.25: !In(M)")
		db := NewDatabase()
		rng := rand.New(rand.NewSource(11))
		for m := 0; m < 25; m++ {
			for t := 0; t < 12; t++ {
				if rng.Intn(3) == 0 {
					db.Observe("Covers", []string{fmt.Sprintf("m%d", m), fmt.Sprintf("t%d", t)}, rng.Float64())
				}
			}
			db.AddTarget("In", fmt.Sprintf("m%d", m))
		}
		for t := 0; t < 12; t++ {
			db.AddTarget("Explained", fmt.Sprintf("t%d", t))
		}
		add("selection", p, db)
	}

	{ // Transitivity with squared hinges, constants and a hard rule.
		p := NewProgram()
		p.MustAddPredicate("Similar", 2, Closed)
		p.MustAddPredicate("Same", 2, Open)
		p.MustAddPredicate("Seed", 1, Closed)
		p.MustAddRule("0.8: Similar(A, B) & Same(B, C) -> Same(A, C) ^2")
		p.MustAddRule("hard: Seed(A) -> Same(A, 'a')")
		p.MustAddRule("0.2: !Same(A, B)")
		db := NewDatabase()
		names := []string{"a", "b", "c", "d", "e"}
		rng := rand.New(rand.NewSource(23))
		for _, x := range names {
			for _, y := range names {
				if x != y && rng.Intn(2) == 0 {
					db.Observe("Similar", []string{x, y}, 0.3+0.7*rng.Float64())
				}
				db.AddTarget("Same", x, y)
			}
		}
		db.Observe("Seed", []string{"a"}, 1)
		db.Observe("Seed", []string{"c"}, 0.6)
		add("transitivity", p, db)
	}

	{ // Negated closed body literal + repeated variable + closed head.
		p := NewProgram()
		p.MustAddPredicate("Edge", 2, Closed)
		p.MustAddPredicate("Blocked", 1, Closed)
		p.MustAddPredicate("On", 1, Open)
		p.MustAddRule("1.0: Edge(X, X) & !Blocked(X) -> On(X)")
		p.MustAddRule("2.0: Edge(X, Y) & On(X) -> On(Y)")
		p.MustAddRule("0.5: On(X) -> Blocked(X)")
		db := NewDatabase()
		for i := 0; i < 8; i++ {
			db.Observe("Edge", []string{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", (i*3)%8)}, 1)
			if i%2 == 0 {
				db.Observe("Edge", []string{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i)}, 0.9)
			}
			db.Observe("Blocked", []string{fmt.Sprintf("n%d", i)}, float64(i)/10)
			db.AddTarget("On", fmt.Sprintf("n%d", i))
		}
		add("negation", p, db)
	}

	{ // Open atoms that are bound by an earlier literal but never
		// registered as targets still ground (as fresh variables).
		p := NewProgram()
		p.MustAddPredicate("Link", 2, Closed)
		p.MustAddPredicate("Up", 1, Open)
		p.MustAddRule("1.0: Link(X, Y) & Up(X) -> Up(Y)")
		p.MustAddRule("0.3: !Up(X)")
		db := NewDatabase()
		for i := 0; i < 6; i++ {
			db.Observe("Link", []string{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", (i+1)%6)}, 0.8)
			if i%3 != 2 {
				db.AddTarget("Up", fmt.Sprintf("n%d", i))
			}
		}
		add("partial-targets", p, db)
	}
	return out
}

// TestGroundMatchesReference checks Ground against groundByEnumeration,
// a brute-force restatement of the grounding semantics: the same
// variable names, and the same potentials and constraints as
// multisets.
func TestGroundMatchesReference(t *testing.T) {
	for _, tc := range equivPrograms() {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Ground(tc.prog, tc.db)
			if err != nil {
				t.Fatalf("Ground: %v", err)
			}
			if len(got.Potentials) == 0 {
				t.Fatal("degenerate case: no potentials")
			}
			assertMatchesEnumeration(t, got, tc.prog, tc.db)
		})
	}
}

// TestGroundingDedup checks that duplicate observations and targets
// collapse (each distinct binding grounds once).
func TestGroundingDedup(t *testing.T) {
	p := NewProgram()
	p.MustAddPredicate("R", 2, Closed)
	p.MustAddPredicate("A", 1, Open)
	p.MustAddRule("1.0: R(X, Y) & A(X) -> A(Y)")
	db := NewDatabase()
	for i := 0; i < 3; i++ { // duplicates on purpose
		db.Observe("R", []string{"u", "v"}, 1)
		db.AddTarget("A", "u")
		db.AddTarget("A", "v")
	}
	got, err := Ground(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Potentials) != 1 {
		t.Fatalf("duplicate rows must ground once, got %d potentials", len(got.Potentials))
	}
	assertMatchesEnumeration(t, got, p, db)
}

// groundByEnumeration grounds the program by trying every assignment
// of each rule's variables over all constants of the database and the
// rule. An assignment grounds the rule when every binding literal
// (positive closed body literals, then open literals) that introduces
// a variable not bound by an earlier one is a listed observation or
// target — exactly the join Ground performs. It returns the canonical
// factor strings and the names of the open atoms that occur.
func groundByEnumeration(t *testing.T, prog *Program, db *Database) (factors, names []string) {
	t.Helper()
	domainSet := map[string]bool{}
	for _, byPred := range []map[string][][]string{db.obsByPred, db.targetsByPred} {
		for _, rows := range byPred {
			for _, row := range rows {
				for _, c := range row {
					domainSet[c] = true
				}
			}
		}
	}
	nameSet := map[string]bool{}
	for _, rule := range prog.Rules() {
		lits := append(append([]Literal(nil), rule.Body...), rule.Head...)
		var vars []string
		seen := map[string]bool{}
		for _, l := range lits {
			for _, tm := range l.Terms {
				if tm.IsConst {
					domainSet[tm.Name] = true
				} else if !seen[tm.Name] {
					seen[tm.Name] = true
					vars = append(vars, tm.Name)
				}
			}
		}
		domain := make([]string, 0, len(domainSet))
		for c := range domainSet {
			domain = append(domain, c)
		}
		sort.Strings(domain)
		isOpen := func(l Literal) bool { pr, _ := prog.Predicate(l.Pred); return pr.Open == Open }
		var anchors []Literal
		for i, l := range lits {
			if isOpen(l) || (i < len(rule.Body) && !l.Negated) {
				anchors = append(anchors, l)
			}
		}
		args := func(l Literal, b map[string]string) []string {
			out := make([]string, len(l.Terms))
			for i, tm := range l.Terms {
				out[i] = tm.Name
				if !tm.IsConst {
					out[i] = b[tm.Name]
				}
			}
			return out
		}
		b := map[string]string{}
		var assign func(k int)
		assign = func(k int) {
			if k < len(vars) {
				for _, c := range domain {
					b[vars[k]] = c
					assign(k + 1)
				}
				return
			}
			bound := map[string]bool{}
			for _, a := range anchors {
				binds := false
				for _, tm := range a.Terms {
					if !tm.IsConst && !bound[tm.Name] {
						binds = true
						bound[tm.Name] = true
					}
				}
				key := atomKey(a.Pred, args(a, b))
				if _, observed := db.obs[key]; binds && !observed && !db.targets[key] {
					return
				}
			}
			// Distance to satisfaction, summed in literal order.
			c := 1.0
			if len(rule.Body) > 0 {
				c = -float64(len(rule.Body) - 1)
			}
			coef := map[string]float64{}
			var order []string
			for i, l := range lits {
				sign := 1.0
				if i >= len(rule.Body) {
					sign = -1
				}
				if !isOpen(l) {
					v := db.ObservedValue(l.Pred, args(l, b))
					if l.Negated {
						v = 1 - v
					}
					c += sign * v
					continue
				}
				name := atomKey(l.Pred, args(l, b))
				nameSet[name] = true
				if _, ok := coef[name]; !ok {
					order = append(order, name)
				}
				if l.Negated {
					c += sign
					coef[name] += -sign
				} else {
					coef[name] += sign
				}
			}
			var terms []string
			maxVal := c
			for _, name := range order {
				if math.Abs(coef[name]) <= 1e-12 {
					continue
				}
				terms = append(terms, fmt.Sprintf("%v*%s", coef[name], name))
				if coef[name] > 0 {
					maxVal += coef[name]
				}
			}
			sort.Strings(terms)
			switch {
			case rule.Hard && len(terms) == 0:
				if c > 1e-9 {
					t.Fatalf("rule %s: constant constraint violated", rule)
				}
			case rule.Hard:
				factors = append(factors, fmt.Sprintf("cons %v c=%v | %s", LE, c, strings.Join(terms, " + ")))
			case len(terms) > 0 && maxVal > 0:
				factors = append(factors, fmt.Sprintf("pot w=%v sq=%v c=%v | %s", rule.Weight, rule.Squared, c, strings.Join(terms, " + ")))
			}
		}
		assign(0)
	}
	for name := range nameSet {
		names = append(names, name)
	}
	sort.Strings(names)
	sort.Strings(factors)
	return factors, names
}

// canonicalFactors renders the MRF's potentials and constraints in
// groundByEnumeration's form, sorted.
func canonicalFactors(m *MRF) []string {
	terms := func(lts []LinTerm) string {
		parts := make([]string, len(lts))
		for i, lt := range lts {
			parts[i] = fmt.Sprintf("%v*%s", lt.Coef, m.varNames[lt.Var])
		}
		sort.Strings(parts)
		return strings.Join(parts, " + ")
	}
	var out []string
	for _, p := range m.Potentials {
		out = append(out, fmt.Sprintf("pot w=%v sq=%v c=%v | %s", p.Weight, p.Squared, p.Const, terms(p.Terms)))
	}
	for _, c := range m.Constraints {
		out = append(out, fmt.Sprintf("cons %v c=%v | %s", c.Cmp, c.Const, terms(c.Terms)))
	}
	sort.Strings(out)
	return out
}

// assertMatchesEnumeration compares a grounded MRF with
// groundByEnumeration over the same program and database.
func assertMatchesEnumeration(t *testing.T, got *MRF, prog *Program, db *Database) {
	t.Helper()
	wantFactors, wantNames := groundByEnumeration(t, prog, db)
	gotNames := got.VarNames()
	sort.Strings(gotNames)
	if !reflect.DeepEqual(gotNames, wantNames) {
		t.Fatalf("variables %q, want %q", gotNames, wantNames)
	}
	gotFactors := canonicalFactors(got)
	if len(gotFactors) != len(wantFactors) {
		t.Fatalf("%d factors, want %d", len(gotFactors), len(wantFactors))
	}
	for i := range gotFactors {
		if gotFactors[i] != wantFactors[i] {
			t.Fatalf("factor %d: got %s, want %s", i, gotFactors[i], wantFactors[i])
		}
	}
}
