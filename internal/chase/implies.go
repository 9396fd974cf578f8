package chase

// Logical implication between st tgds, by the classic chase test: σ
// implies τ (every instance pair satisfying σ satisfies τ) iff
// chasing the *frozen* body of τ with σ yields an instance into which
// τ's head maps homomorphically, holding the frozen body variables
// fixed. Used to minimise mappings: a selected mapping sometimes
// contains a tgd subsumed by a stronger one (θ1 is implied by θ3 in
// the paper's running example).

import (
	"fmt"

	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// Implies reports whether σ logically implies τ (as single st tgds).
func Implies(sigma, tau *tgd.TGD) bool {
	// Freeze τ's body: each variable becomes a distinct constant.
	frozen := make(map[string]data.Value)
	I := data.NewInstance()
	for _, a := range tau.Body {
		args := make([]data.Value, len(a.Args))
		for i, t := range a.Args {
			if t.IsConst {
				args[i] = data.Const(t.Name)
				continue
			}
			v, ok := frozen[t.Name]
			if !ok {
				v = data.Const(fmt.Sprintf("\x00frozen:%s", t.Name))
				frozen[t.Name] = v
			}
			args[i] = v
		}
		I.Add(data.Tuple{Rel: a.Rel, Args: args})
	}

	// Chase the frozen body with σ.
	res := ChaseOne(I, sigma, nil)

	// τ's head must map into the chase result with body variables
	// fixed to their frozen constants and existentials free. Encode
	// the head as a "block": body variables become their frozen
	// constants, existentials become nulls, then test it for a total
	// embedding into the index of the chase result.
	head := make([]data.Tuple, 0, len(tau.Head))
	for _, a := range tau.Head {
		args := make([]data.Value, len(a.Args))
		for i, t := range a.Args {
			switch {
			case t.IsConst:
				args[i] = data.Const(t.Name)
			default:
				if v, ok := frozen[t.Name]; ok {
					args[i] = v
				} else {
					args[i] = data.NullValue("\x00exist:" + t.Name)
				}
			}
		}
		head = append(head, data.Tuple{Rel: a.Rel, Args: args})
	}
	return data.NewSearcher(data.IndexTuples(res.Instance.All())).BlockEmbeds(head)
}

// MinimizeMapping removes tgds implied by another member of the
// mapping (keeping earlier members on mutual implication), returning
// a logically equivalent, smaller mapping.
func MinimizeMapping(m tgd.Mapping) tgd.Mapping {
	keep := make([]bool, len(m))
	for i := range keep {
		keep[i] = true
	}
	for i := range m {
		if !keep[i] {
			continue
		}
		for j := range m {
			if i == j || !keep[j] || !keep[i] {
				continue
			}
			if Implies(m[i], m[j]) {
				// Drop j unless j also implies i and j comes first.
				if Implies(m[j], m[i]) && j < i {
					keep[i] = false
				} else {
					keep[j] = false
				}
			}
		}
	}
	var out tgd.Mapping
	for i, k := range keep {
		if k {
			out = append(out, m[i])
		}
	}
	return out
}
