package psl

import (
	"fmt"
	"strings"
)

// Openness says whether a predicate's atoms are decision variables
// (Open) or observed facts under the closed-world assumption (Closed).
type Openness int

const (
	// Closed predicates are fully observed: unlisted atoms are false.
	Closed Openness = iota
	// Open predicates are inferred: each ground atom is a variable.
	Open
)

// Predicate declares a name, arity and openness.
type Predicate struct {
	Name  string
	Arity int
	Open  Openness
}

// Literal is a possibly negated atom pattern inside a rule: predicate
// name plus terms, where a term starting with an upper-case letter is
// a variable and anything else (or a quoted string) is a constant.
type Literal struct {
	Negated bool
	Pred    string
	Terms   []RuleTerm
}

// RuleTerm is a variable or constant occurring in a rule literal.
type RuleTerm struct {
	Name    string
	IsConst bool
}

// String renders the literal in DSL form.
func (l Literal) String() string {
	parts := make([]string, len(l.Terms))
	for i, t := range l.Terms {
		if t.IsConst {
			parts[i] = "'" + t.Name + "'"
		} else {
			parts[i] = t.Name
		}
	}
	s := fmt.Sprintf("%s(%s)", l.Pred, strings.Join(parts, ", "))
	if l.Negated {
		return "!" + s
	}
	return s
}

// Rule is one weighted (or hard) Łukasiewicz rule
// body₁ ∧ … ∧ bodyₖ → head₁ ∨ … ∨ headₘ. A rule with an empty body
// and a single head literal is a *prior* ("L should be true", distance
// 1 − I(L)). Hard rules (Weight < 0 by convention, set via Hard) are
// grounded as constraints: distance to satisfaction must be 0.
type Rule struct {
	Weight  float64
	Hard    bool
	Squared bool
	Body    []Literal
	Head    []Literal
}

// String renders the rule in DSL form.
func (r Rule) String() string {
	var b strings.Builder
	if r.Hard {
		b.WriteString("hard: ")
	} else {
		fmt.Fprintf(&b, "%g: ", r.Weight)
	}
	if len(r.Body) > 0 {
		parts := make([]string, len(r.Body))
		for i, l := range r.Body {
			parts[i] = l.String()
		}
		b.WriteString(strings.Join(parts, " & "))
		b.WriteString(" -> ")
	}
	parts := make([]string, len(r.Head))
	for i, l := range r.Head {
		parts[i] = l.String()
	}
	b.WriteString(strings.Join(parts, " | "))
	if r.Squared {
		b.WriteString(" ^2")
	}
	return b.String()
}

// Program is a set of predicates and rules.
type Program struct {
	preds map[string]Predicate
	rules []Rule
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{preds: make(map[string]Predicate)}
}

// AddPredicate declares a predicate.
func (p *Program) AddPredicate(name string, arity int, open Openness) error {
	if name == "" || arity <= 0 {
		return fmt.Errorf("psl: invalid predicate %q/%d", name, arity)
	}
	if _, dup := p.preds[name]; dup {
		return fmt.Errorf("psl: duplicate predicate %s", name)
	}
	p.preds[name] = Predicate{Name: name, Arity: arity, Open: open}
	return nil
}

// MustAddPredicate is AddPredicate but panics on error.
func (p *Program) MustAddPredicate(name string, arity int, open Openness) {
	if err := p.AddPredicate(name, arity, open); err != nil {
		panic(err)
	}
}

// Predicate looks up a declared predicate.
func (p *Program) Predicate(name string) (Predicate, bool) {
	pr, ok := p.preds[name]
	return pr, ok
}

// AddRule appends a rule after validating predicates and arities.
func (p *Program) AddRule(r Rule) error {
	if len(r.Head) == 0 {
		return fmt.Errorf("psl: rule %s has no head", r)
	}
	if !r.Hard && r.Weight <= 0 {
		return fmt.Errorf("psl: rule %s must have positive weight or be hard", r)
	}
	for _, l := range append(append([]Literal(nil), r.Body...), r.Head...) {
		pr, ok := p.preds[l.Pred]
		if !ok {
			return fmt.Errorf("psl: rule %s uses undeclared predicate %s", r, l.Pred)
		}
		if pr.Arity != len(l.Terms) {
			return fmt.Errorf("psl: rule %s: %s has arity %d, want %d", r, l.Pred, len(l.Terms), pr.Arity)
		}
	}
	// Every variable must be bindable: either it occurs in a positive
	// closed body literal (bound by joining observations) or in a
	// literal over an open predicate (bound by enumerating the
	// database's registered target atoms).
	bound := make(map[string]bool)
	for _, l := range r.Body {
		pr := p.preds[l.Pred]
		if !l.Negated && pr.Open == Closed {
			for _, t := range l.Terms {
				if !t.IsConst {
					bound[t.Name] = true
				}
			}
		}
	}
	for _, l := range append(append([]Literal(nil), r.Body...), r.Head...) {
		if p.preds[l.Pred].Open == Open {
			for _, t := range l.Terms {
				if !t.IsConst {
					bound[t.Name] = true
				}
			}
		}
	}
	for _, l := range append(append([]Literal(nil), r.Body...), r.Head...) {
		for _, t := range l.Terms {
			if !t.IsConst && !bound[t.Name] {
				return fmt.Errorf("psl: rule %s: variable %s cannot be bound during grounding", r, t.Name)
			}
		}
	}
	p.rules = append(p.rules, r)
	return nil
}

// MustAddRule parses and appends a rule in DSL form, panicking on
// error; see ParseRule for the syntax.
func (p *Program) MustAddRule(src string) {
	r, err := ParseRule(src)
	if err != nil {
		panic(err)
	}
	if err := p.AddRule(r); err != nil {
		panic(err)
	}
}

// Rules returns the program's rules.
func (p *Program) Rules() []Rule { return p.rules }

// ParseRule parses the rule DSL:
//
//	"2.0: Covers(M, T) & In(M) -> Explained(T)"
//	"1.0: !In(M)"                  (prior: In should be false)
//	"hard: Explained(T) -> Known(T)"
//	"0.5: Friends(A,B) -> Same(A,B) ^2"   (squared hinge)
//
// Terms starting with an upper-case letter are variables; quoted
// strings and other identifiers are constants.
func ParseRule(src string) (Rule, error) {
	var r Rule
	s := strings.TrimSpace(src)
	colon := strings.Index(s, ":")
	if colon < 0 {
		return r, fmt.Errorf("psl: rule %q missing weight prefix", src)
	}
	wtxt := strings.TrimSpace(s[:colon])
	s = strings.TrimSpace(s[colon+1:])
	if wtxt == "hard" {
		r.Hard = true
	} else {
		if _, err := fmt.Sscanf(wtxt, "%g", &r.Weight); err != nil {
			return r, fmt.Errorf("psl: rule %q: bad weight %q", src, wtxt)
		}
	}
	if strings.HasSuffix(s, "^2") {
		r.Squared = true
		s = strings.TrimSpace(strings.TrimSuffix(s, "^2"))
	}
	var bodyTxt, headTxt string
	if i := strings.Index(s, "->"); i >= 0 {
		bodyTxt, headTxt = s[:i], s[i+2:]
	} else {
		headTxt = s
	}
	var err error
	if strings.TrimSpace(bodyTxt) != "" {
		r.Body, err = parseLiterals(bodyTxt, "&")
		if err != nil {
			return r, fmt.Errorf("psl: rule %q: %w", src, err)
		}
	}
	r.Head, err = parseLiterals(headTxt, "|")
	if err != nil {
		return r, fmt.Errorf("psl: rule %q: %w", src, err)
	}
	if len(r.Head) == 0 {
		return r, fmt.Errorf("psl: rule %q has no head", src)
	}
	return r, nil
}

func parseLiterals(s, sep string) ([]Literal, error) {
	var out []Literal
	for _, part := range strings.Split(s, sep) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		l, err := parseLiteral(part)
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	return out, nil
}

func parseLiteral(s string) (Literal, error) {
	var l Literal
	for strings.HasPrefix(s, "!") || strings.HasPrefix(s, "~") {
		l.Negated = !l.Negated
		s = strings.TrimSpace(s[1:])
	}
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return l, fmt.Errorf("bad literal %q", s)
	}
	l.Pred = strings.TrimSpace(s[:open])
	if l.Pred == "" {
		return l, fmt.Errorf("bad literal %q: empty predicate", s)
	}
	args := s[open+1 : len(s)-1]
	for _, a := range strings.Split(args, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return l, fmt.Errorf("bad literal %q: empty term", s)
		}
		if strings.HasPrefix(a, "'") && strings.HasSuffix(a, "'") && len(a) >= 2 {
			l.Terms = append(l.Terms, RuleTerm{Name: a[1 : len(a)-1], IsConst: true})
		} else if a[0] >= 'A' && a[0] <= 'Z' {
			l.Terms = append(l.Terms, RuleTerm{Name: a})
		} else {
			l.Terms = append(l.Terms, RuleTerm{Name: a, IsConst: true})
		}
	}
	return l, nil
}
