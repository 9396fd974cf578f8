package query

import (
	"fmt"
	"strings"

	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// UCQ is a union of conjunctive queries with a common head arity.
// Certain answers of a UCQ over a data exchange are still obtained by
// naive evaluation over the universal solution (per disjunct, union,
// drop nulls).
type UCQ struct {
	Disjuncts []*CQ
}

// ParseUCQ parses disjuncts separated by ";" (newlines also work),
// e.g. "q(x) :- a(x) ; q(x) :- b(x)".
func ParseUCQ(src string) (*UCQ, error) {
	u := &UCQ{}
	for _, part := range strings.FieldsFunc(src, func(r rune) bool { return r == ';' || r == '\n' }) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		q, err := Parse(part)
		if err != nil {
			return nil, err
		}
		u.Disjuncts = append(u.Disjuncts, q)
	}
	if len(u.Disjuncts) == 0 {
		return nil, fmt.Errorf("query: empty union")
	}
	arity := len(u.Disjuncts[0].Head)
	for _, q := range u.Disjuncts[1:] {
		if len(q.Head) != arity {
			return nil, fmt.Errorf("query: union disjuncts have arities %d and %d", arity, len(q.Head))
		}
	}
	return u, nil
}

// String renders the union with "; " separators.
func (u *UCQ) String() string {
	parts := make([]string, len(u.Disjuncts))
	for i, q := range u.Disjuncts {
		parts[i] = q.String()
	}
	return strings.Join(parts, " ; ")
}

// Eval evaluates all disjuncts and unions the answers (deduplicated).
//
//lint:testonly query tests check UCQ answers with it
func (u *UCQ) Eval(in *data.Instance) []Answer {
	var out []Answer
	seen := make(map[string]bool)
	for _, q := range u.Disjuncts {
		for _, a := range q.Eval(in) {
			k := a.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, a)
			}
		}
	}
	return out
}

// CertainAnswersUCQ computes the certain answers of the union over
// the exchange of I by m.
func CertainAnswersUCQ(u *UCQ, I *data.Instance, m tgd.Mapping) []Answer {
	var out []Answer
	seen := make(map[string]bool)
	for _, q := range u.Disjuncts {
		for _, a := range CertainAnswers(q, I, m) {
			k := a.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, a)
			}
		}
	}
	return out
}
