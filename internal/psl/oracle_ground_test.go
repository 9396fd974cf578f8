package psl

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// This file and oracle_program_test.go hold the PSL rule language the
// paper states its model in: predicates, weighted Łukasiewicz rules
// with a text DSL, a fact database, and a grounder that turns a
// program plus database into an HL-MRF. No production code grounds
// rules: internal/core builds the selection MRF directly. The grounder
// is kept, next to the tests that use it, as the exact oracle that
// direct grounding must match (selection_oracle_test.go).

// Database holds the observed atoms (for closed predicates, with soft
// truth values in [0,1]; unlisted closed atoms are false) and the
// registered target atoms of open predicates (the decision variables).
type Database struct {
	obs           map[string]float64 // atom key -> value
	obsByPred     map[string][][]string
	targets       map[string]bool // atom key
	targetsByPred map[string][][]string
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{
		obs:           make(map[string]float64),
		obsByPred:     make(map[string][][]string),
		targets:       make(map[string]bool),
		targetsByPred: make(map[string][][]string),
	}
}

// atomValue returns the solved truth value of the ground atom
// pred(args...), or 0 when the atom never appeared in a ground
// potential or constraint.
func atomValue(m *MRF, sol *Solution, pred string, args ...string) float64 {
	i, ok := m.varIndex[atomKey(pred, args)]
	if !ok {
		return 0
	}
	return sol.X[i]
}

// Observe records a soft observation for a closed predicate's atom.
func (db *Database) Observe(pred string, args []string, value float64) {
	if value < 0 {
		value = 0
	}
	if value > 1 {
		value = 1
	}
	k := atomKey(pred, args)
	if _, dup := db.obs[k]; !dup {
		db.obsByPred[pred] = append(db.obsByPred[pred], append([]string(nil), args...))
	}
	db.obs[k] = value
}

// AddTarget registers an open-predicate atom as a decision variable.
func (db *Database) AddTarget(pred string, args ...string) {
	k := atomKey(pred, args)
	if db.targets[k] {
		return
	}
	db.targets[k] = true
	db.targetsByPred[pred] = append(db.targetsByPred[pred], append([]string(nil), args...))
}

// ObservedValue returns the observation (0 for unlisted atoms of
// closed predicates).
func (db *Database) ObservedValue(pred string, args []string) float64 {
	return db.obs[atomKey(pred, args)]
}

// Ground grounds the program against the database, producing the MRF.
// Logical rules become hinge potentials (hard rules become
// constraints) using the standard Łukasiewicz relaxation: the distance
// to satisfaction of b₁∧…∧bₖ → h₁∨…∨hₘ is
// max(0, Σᵢ I(bᵢ) − (k−1) − Σⱼ I(hⱼ)).
//
// Bindings are plain variable→constant maps joined literal by literal;
// the grounder favours a direct reading over speed, since the
// collective solver grounds its MRF directly (internal/core) and the
// rule program serves as its test oracle.
func Ground(prog *Program, db *Database) (*MRF, error) {
	mrf := NewMRF()
	for _, rule := range prog.rules {
		if err := groundRule(prog, db, mrf, rule); err != nil {
			return nil, err
		}
	}
	return mrf, nil
}

// groundRule enumerates bindings and emits potentials/constraints.
func groundRule(prog *Program, db *Database, mrf *MRF, rule Rule) error {
	// Literal processing order: positive closed body literals first
	// (join over observations), then open literals (join over
	// targets), then the rest (fully bound by now).
	all := make([]Literal, 0, len(rule.Body)+len(rule.Head))
	inHead := make([]bool, 0, cap(all))
	for _, l := range rule.Body {
		all = append(all, l)
		inHead = append(inHead, false)
	}
	for _, l := range rule.Head {
		all = append(all, l)
		inHead = append(inHead, true)
	}
	type litRef struct {
		lit  Literal
		head bool
	}
	var anchors []litRef // literals used to bind variables
	for i, l := range all {
		pr, _ := prog.Predicate(l.Pred)
		if !l.Negated && pr.Open == Closed && !inHead[i] {
			anchors = append(anchors, litRef{l, inHead[i]})
		} else if pr.Open == Open {
			anchors = append(anchors, litRef{l, inHead[i]})
		}
	}

	bindings := []map[string]string{{}}
	for _, a := range anchors {
		pr, _ := prog.Predicate(a.lit.Pred)
		rows := db.obsByPred[a.lit.Pred]
		if pr.Open == Open {
			rows = db.targetsByPred[a.lit.Pred]
		}
		var next []map[string]string
		for _, b := range bindings {
			if _, ok := substitute(a.lit, b); ok {
				// Fully bound already: nothing to join; presence is not
				// required for closed positive body literals (soft value
				// may be 0, pruned later). Keep binding.
				next = append(next, b)
				continue
			}
			for _, row := range rows {
				if nb, ok := unify(a.lit, row, b); ok {
					next = append(next, nb)
				}
			}
		}
		bindings = dedupBindings(next)
		if len(bindings) == 0 {
			return nil
		}
	}

	for _, b := range bindings {
		if err := emitGround(prog, db, mrf, rule, b); err != nil {
			return err
		}
	}
	return nil
}

// substitute applies binding b to the literal; ok is false when
// some variable is unbound.
func substitute(l Literal, b map[string]string) ([]string, bool) {
	out := make([]string, len(l.Terms))
	for i, t := range l.Terms {
		if t.IsConst {
			out[i] = t.Name
			continue
		}
		v, ok := b[t.Name]
		if !ok {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// unify matches the literal's terms against a row, extending b.
func unify(l Literal, row []string, b map[string]string) (map[string]string, bool) {
	if len(l.Terms) != len(row) {
		return nil, false
	}
	nb := b
	copied := false
	for i, t := range l.Terms {
		if t.IsConst {
			if t.Name != row[i] {
				return nil, false
			}
			continue
		}
		if v, ok := nb[t.Name]; ok {
			if v != row[i] {
				return nil, false
			}
			continue
		}
		if !copied {
			nb = make(map[string]string, len(b)+2)
			for k, v := range b {
				nb[k] = v
			}
			copied = true
		}
		nb[t.Name] = row[i]
	}
	if !copied {
		nb = make(map[string]string, len(b))
		for k, v := range b {
			nb[k] = v
		}
	}
	return nb, true
}

func dedupBindings(bs []map[string]string) []map[string]string {
	seen := make(map[string]bool, len(bs))
	out := bs[:0]
	for _, b := range bs {
		keys := make([]string, 0, len(b))
		for k := range b {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%q=%q;", k, b[k])
		}
		sig := sb.String()
		if !seen[sig] {
			seen[sig] = true
			out = append(out, b)
		}
	}
	return out
}

// emitGround instantiates the rule under binding b and adds the
// resulting potential or constraint.
func emitGround(prog *Program, db *Database, mrf *MRF, rule Rule, b map[string]string) error {
	var terms []LinTerm
	c := 0.0
	if len(rule.Body) == 0 {
		// Prior: distance = 1 − I(head literal); for a negated literal
		// that is the raw variable value.
		c = 1
	} else {
		c = -float64(len(rule.Body) - 1)
	}
	add := func(l Literal, sign float64) error {
		args, ok := substitute(l, b)
		if !ok {
			return fmt.Errorf("psl: rule %s: unbound variable at emit time", rule)
		}
		pr, _ := prog.Predicate(l.Pred)
		// I(literal) = v or 1−v. The literal enters the distance with
		// the given sign (body +, head −).
		if pr.Open == Closed {
			v := db.ObservedValue(l.Pred, args)
			if l.Negated {
				v = 1 - v
			}
			c += sign * v
			return nil
		}
		vi := mrf.AtomVar(l.Pred, args...)
		if l.Negated {
			c += sign * 1
			terms = append(terms, LinTerm{Var: vi, Coef: -sign})
		} else {
			terms = append(terms, LinTerm{Var: vi, Coef: sign})
		}
		return nil
	}
	for _, l := range rule.Body {
		if err := add(l, +1); err != nil {
			return err
		}
	}
	for _, l := range rule.Head {
		if err := add(l, -1); err != nil {
			return err
		}
	}
	terms = mergeTerms(terms)
	if rule.Hard {
		return mrf.AddConstraint(Constraint{Terms: terms, Const: c, Cmp: LE})
	}
	mrf.AddPotential(Potential{Weight: rule.Weight, Squared: rule.Squared, Terms: terms, Const: c})
	return nil
}

// mergeTerms sums duplicate variable coefficients and drops zeros.
func mergeTerms(ts []LinTerm) []LinTerm {
	sum := make(map[int]float64, len(ts))
	order := make([]int, 0, len(ts))
	for _, t := range ts {
		if _, ok := sum[t.Var]; !ok {
			order = append(order, t.Var)
		}
		sum[t.Var] += t.Coef
	}
	out := make([]LinTerm, 0, len(order))
	for _, v := range order {
		if math.Abs(sum[v]) > 1e-12 {
			out = append(out, LinTerm{Var: v, Coef: sum[v]})
		}
	}
	return out
}
