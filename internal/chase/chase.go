// Package chase implements the naive chase for source-to-target tgds:
// given a source instance I and a mapping M, it materialises the
// canonical universal solution K_M, one *block* of target tuples per
// tgd firing. Blocks record which tuples share freshly minted labelled
// nulls — the unit the Eq. (9) coverage measures operate on.
//
// Because st tgds have no target-side constraints, the naive chase is
// simply: for every tgd and every homomorphism from its body into I,
// instantiate the head with fresh nulls for the existential variables.
// The result is a canonical universal solution of (I, M).
package chase

import (
	"slices"

	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// Block is the set of target tuples produced by one tgd firing. The
// tuples share the nulls minted for that firing's existential
// variables.
type Block struct {
	// TGDIndex identifies the tgd (index into the chased mapping).
	TGDIndex int
	// Tuples are the instantiated head atoms, in head order.
	Tuples []data.Tuple
	// Vals is the firing's body binding: Vals[k] is the source value
	// of the tgd's k-th body variable, in tgd.BodyVars order.
	Vals []data.Value
}

// Binding returns the firing's body binding as a variable → source
// value map; vars must be the BodyVars of the tgd that fired the
// block (computed once per tgd by callers binding many blocks).
func (b *Block) Binding(vars []string) map[string]data.Value {
	m := make(map[string]data.Value, len(vars))
	for k, v := range vars {
		m[v] = b.Vals[k]
	}
	return m
}

// Result is the output of a chase: the materialised instance plus the
// per-firing blocks.
type Result struct {
	// Instance holds the union of all block tuples (set semantics;
	// duplicate facts across firings are stored once, but each block
	// still lists its own tuples).
	Instance *data.Instance
	// Blocks lists every firing, grouped by tgd in mapping order.
	Blocks []Block
}

// Chase runs the naive chase of I with the mapping m. Fresh nulls are
// minted from nf; passing a shared factory across chases keeps null
// labels globally unique. nf may be nil, in which case a private
// factory is used. Either way the factory never mints a label that
// already labels a null of I.
func Chase(I *data.Instance, m tgd.Mapping, nf *data.NullFactory) *Result {
	res := &Result{Instance: data.NewInstance()}
	Each(I, m, nf, func(b Block) {
		b.Tuples, b.Vals = data.CloneTuples(b.Tuples), slices.Clone(b.Vals)
		for _, t := range b.Tuples {
			res.Instance.Add(t)
		}
		res.Blocks = append(res.Blocks, b)
	})
	return res
}

// Each runs the chase of Chase but hands every block to fn as it
// fires, in Chase's block order, instead of materialising the result.
// The block's slices are reused by the next firing: fn must not keep
// them past its return (data.CloneTuples copies the tuples).
func Each(I *data.Instance, m tgd.Mapping, nf *data.NullFactory, fn func(Block)) {
	if nf == nil {
		nf = &data.NullFactory{}
	}
	nf.Reserve(I)
	for i, d := range m {
		pl := compile(d)
		pl.body.match(I, func(vals []data.Value) {
			fn(pl.fire(i, vals, nf))
		})
	}
}

// ChaseOne chases I with the single tgd d.
func ChaseOne(I *data.Instance, d *tgd.TGD, nf *data.NullFactory) *Result {
	return Chase(I, tgd.Mapping{d}, nf)
}

// argKind says what a compiled atom argument does.
type argKind uint8

const (
	argConst argKind = iota // body: match the constant; head: emit it
	argBind                 // body: bind the variable's slot (its first occurrence)
	argCheck                // body: match the slot's bound value; head: emit it
	argMint                 // head: mint the existential's null (its first occurrence)
	argExist                // head: emit the existential's null minted earlier
)

// planArg is one compiled atom argument: the constant for argConst,
// else a body-variable or existential slot.
type planArg struct {
	kind  argKind
	slot  int
	konst data.Value
}

// planAtom is a compiled atom.
type planAtom struct {
	rel  string
	args []planArg
}

// bodyPlan is a conjunctive body compiled for a backtracking join.
// Body variables are slots numbered by first occurrence in atom order
// — the tgd.BodyVars order — and because the join binds atoms in that
// same order, whether an argument binds or checks its slot is fixed
// at compile time.
type bodyPlan struct {
	vars  []string
	atoms []planAtom
}

// plan is a compiled tgd.
type plan struct {
	body bodyPlan
	head []planAtom
	// Scratch every firing is instantiated into: tuples[k] is head
	// atom k, its Args fixed windows of one value slice, and exist
	// holds the firing's minted nulls by existential slot.
	tuples []data.Tuple
	exist  []data.Value
}

// compileBody compiles body atoms.
func compileBody(body []tgd.Atom) bodyPlan {
	var bp bodyPlan
	bp.atoms = make([]planAtom, len(body))
	for k, a := range body {
		args := make([]planArg, len(a.Args))
		for p, term := range a.Args {
			switch slot := slices.Index(bp.vars, term.Name); {
			case term.IsConst:
				args[p] = planArg{kind: argConst, konst: data.Const(term.Name)}
			case slot >= 0:
				args[p] = planArg{kind: argCheck, slot: slot}
			default:
				args[p] = planArg{kind: argBind, slot: len(bp.vars)}
				bp.vars = append(bp.vars, term.Name)
			}
		}
		bp.atoms[k] = planAtom{rel: a.Rel, args: args}
	}
	return bp
}

// compile compiles a tgd: its body, and its head with every variable
// resolved to a body slot or an existential slot, the existentials
// numbered (and minted) by first occurrence in head order.
func compile(d *tgd.TGD) *plan {
	pl := &plan{body: compileBody(d.Body), head: make([]planAtom, len(d.Head))}
	var exist []string
	arity := 0
	for k, a := range d.Head {
		args := make([]planArg, len(a.Args))
		for p, term := range a.Args {
			if term.IsConst {
				args[p] = planArg{kind: argConst, konst: data.Const(term.Name)}
			} else if slot := slices.Index(pl.body.vars, term.Name); slot >= 0 {
				args[p] = planArg{kind: argCheck, slot: slot}
			} else if slot := slices.Index(exist, term.Name); slot >= 0 {
				args[p] = planArg{kind: argExist, slot: slot}
			} else {
				args[p] = planArg{kind: argMint, slot: len(exist)}
				exist = append(exist, term.Name)
			}
		}
		pl.head[k] = planAtom{rel: a.Rel, args: args}
		arity += len(args)
	}
	vals := make([]data.Value, arity)
	pl.tuples = make([]data.Tuple, len(d.Head))
	for k, a := range pl.head {
		n := len(a.args)
		pl.tuples[k] = data.Tuple{Rel: a.rel, Args: vals[:n:n]}
		vals = vals[n:]
	}
	pl.exist = make([]data.Value, len(exist))
	return pl
}

// match calls fn with the slot values of every homomorphism from the
// body into I, in a deterministic order (atom scan order: by the
// tuple matched to the first atom, then the second, ...), which keeps
// chase output and null labelling reproducible for a fixed factory.
// fn must not retain vals; it is rebound for the next match.
func (bp *bodyPlan) match(I *data.Instance, fn func(vals []data.Value)) {
	bp.join(I, 0, make([]data.Value, len(bp.vars)), fn)
}

func (bp *bodyPlan) join(I *data.Instance, k int, vals []data.Value, fn func([]data.Value)) {
	if k == len(bp.atoms) {
		fn(vals)
		return
	}
	a := &bp.atoms[k]
	for _, t := range I.Tuples(a.rel) {
		if a.unify(t, vals) {
			bp.join(I, k+1, vals, fn)
		}
	}
}

// unify matches the body atom against t, binding the slots the atom
// binds first. Slots bound by earlier atoms are only read, so a failed
// unification needs no rollback.
func (a *planAtom) unify(t data.Tuple, vals []data.Value) bool {
	if len(t.Args) != len(a.args) {
		return false
	}
	for p, arg := range a.args {
		v := t.Args[p]
		switch arg.kind {
		case argConst:
			if v != arg.konst {
				return false
			}
		case argBind:
			vals[arg.slot] = v
		default:
			if vals[arg.slot] != v {
				return false
			}
		}
	}
	return true
}

// fire instantiates the head under the body binding vals into the
// plan's scratch, minting fresh nulls for existential variables. The
// block aliases the scratch and vals; see Each.
func (pl *plan) fire(tgdIndex int, vals []data.Value, nf *data.NullFactory) Block {
	for k, a := range pl.head {
		args := pl.tuples[k].Args
		for p, arg := range a.args {
			switch arg.kind {
			case argConst:
				args[p] = arg.konst
			case argCheck:
				args[p] = vals[arg.slot]
			case argMint:
				pl.exist[arg.slot] = nf.Fresh()
				args[p] = pl.exist[arg.slot]
			case argExist:
				args[p] = pl.exist[arg.slot]
			}
		}
	}
	return Block{TGDIndex: tgdIndex, Tuples: pl.tuples, Vals: vals}
}

// MatchBody enumerates all homomorphisms from the conjunctive body
// into the instance, as variable bindings. Constants in body atoms
// must match exactly. Bindings are returned in a deterministic order
// (atom scan order).
func MatchBody(body []tgd.Atom, I *data.Instance) []map[string]data.Value {
	bp := compileBody(body)
	var out []map[string]data.Value
	bp.match(I, func(vals []data.Value) {
		m := make(map[string]data.Value, len(vals))
		for k, v := range bp.vars {
			m[v] = vals[k]
		}
		out = append(out, m)
	})
	return out
}
