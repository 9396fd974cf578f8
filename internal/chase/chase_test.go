package chase

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

func srcInstance() *data.Instance {
	I := data.NewInstance()
	I.Add(data.NewTuple("proj", "BigData", "Bob", "IBM"))
	I.Add(data.NewTuple("proj", "ML", "Alice", "SAP"))
	return I
}

func TestChaseFullTGD(t *testing.T) {
	I := srcInstance()
	d := tgd.MustParse("proj(p,e,c) -> copy(p,e,c)")
	res := ChaseOne(I, d, nil)
	if res.Instance.Len() != 2 {
		t.Fatalf("len = %d, want 2", res.Instance.Len())
	}
	if !res.Instance.Has(data.NewTuple("copy", "BigData", "Bob", "IBM")) {
		t.Error("missing copied tuple")
	}
	if len(res.Blocks) != 2 {
		t.Errorf("blocks = %d, want 2", len(res.Blocks))
	}
	if err := res.Validate(); err != nil {
		t.Error(err)
	}
}

func TestChaseExistentials(t *testing.T) {
	I := srcInstance()
	d := tgd.MustParse("proj(p,e,c) -> task(p,e,O) & org(O,c)")
	res := ChaseOne(I, d, nil)
	if res.Instance.Len() != 4 {
		t.Fatalf("len = %d, want 4", res.Instance.Len())
	}
	// Each firing shares one null across its two tuples, and firings
	// use distinct nulls.
	if len(res.Blocks) != 2 {
		t.Fatalf("blocks = %d", len(res.Blocks))
	}
	seen := map[string]bool{}
	for _, b := range res.Blocks {
		taskNulls := b.Tuples[0].Nulls()
		orgNulls := b.Tuples[1].Nulls()
		if len(taskNulls) != 1 || len(orgNulls) != 1 || taskNulls[0] != orgNulls[0] {
			t.Errorf("block nulls not shared: %v / %v", taskNulls, orgNulls)
		}
		if seen[taskNulls[0]] {
			t.Errorf("null %s reused across firings", taskNulls[0])
		}
		seen[taskNulls[0]] = true
	}
	if err := res.Validate(); err != nil {
		t.Error(err)
	}
}

func TestChaseJoinBody(t *testing.T) {
	I := data.NewInstance()
	I.Add(data.NewTuple("r1", "k1", "a"))
	I.Add(data.NewTuple("r1", "k2", "b"))
	I.Add(data.NewTuple("r2", "k1", "x"))
	I.Add(data.NewTuple("r2", "k3", "y"))
	d := tgd.MustParse("r1(k,a) & r2(k,b) -> t(k,a,b)")
	res := ChaseOne(I, d, nil)
	if res.Instance.Len() != 1 {
		t.Fatalf("join produced %d tuples, want 1", res.Instance.Len())
	}
	if !res.Instance.Has(data.NewTuple("t", "k1", "a", "x")) {
		t.Errorf("wrong join result: %v", res.Instance)
	}
}

func TestChaseConstantInBody(t *testing.T) {
	I := srcInstance()
	d := tgd.MustParse("proj(p, e, 'SAP') -> sapProj(p, e)")
	res := ChaseOne(I, d, nil)
	if res.Instance.Len() != 1 || !res.Instance.Has(data.NewTuple("sapProj", "ML", "Alice")) {
		t.Errorf("constant selection broken: %v", res.Instance)
	}
}

func TestChaseConstantInHead(t *testing.T) {
	I := srcInstance()
	d := tgd.MustParse("proj(p,e,c) -> tagged(p, 'prod')")
	res := ChaseOne(I, d, nil)
	if !res.Instance.Has(data.NewTuple("tagged", "ML", "prod")) {
		t.Errorf("head constant broken: %v", res.Instance)
	}
}

func TestChaseRepeatedBodyVariable(t *testing.T) {
	I := data.NewInstance()
	I.Add(data.NewTuple("e", "a", "a"))
	I.Add(data.NewTuple("e", "a", "b"))
	d := tgd.MustParse("e(x,x) -> loop(x)")
	res := ChaseOne(I, d, nil)
	if res.Instance.Len() != 1 || !res.Instance.Has(data.NewTuple("loop", "a")) {
		t.Errorf("repeated variable broken: %v", res.Instance)
	}
}

func TestChaseMultipleTGDsSharedFactory(t *testing.T) {
	I := srcInstance()
	m := tgd.Mapping{
		tgd.MustParse("proj(p,e,c) -> task(p,e,O)"),
		tgd.MustParse("proj(p,e,c) -> task(p,e,O) & org(O,c)"),
	}
	nf := &data.NullFactory{}
	res := Chase(I, m, nf)
	// 2 tuples from θ1 + 4 from θ3 (nulls differ, so no dedup).
	if res.Instance.Len() != 6 {
		t.Errorf("len = %d, want 6", res.Instance.Len())
	}
	perTGD := map[int]int{}
	for _, b := range res.Blocks {
		perTGD[b.TGDIndex]++
	}
	if perTGD[0] != 2 || perTGD[1] != 2 {
		t.Errorf("blocks per tgd = %v, want 2 each", perTGD)
	}
	if err := res.Validate(); err != nil {
		t.Error(err)
	}
	// Factory minted one null per θ1 firing, one per θ3 firing.
	if nf.Count() != 4 {
		t.Errorf("nulls minted = %d, want 4", nf.Count())
	}
}

func TestChaseEmptySourceOrMapping(t *testing.T) {
	res := Chase(data.NewInstance(), tgd.Mapping{tgd.MustParse("a(x) -> b(x)")}, nil)
	if res.Instance.Len() != 0 || len(res.Blocks) != 0 {
		t.Error("chase of empty instance not empty")
	}
	res = Chase(srcInstance(), nil, nil)
	if res.Instance.Len() != 0 {
		t.Error("chase with empty mapping not empty")
	}
}

func TestChaseDeterministicNullLabels(t *testing.T) {
	I := srcInstance()
	d := tgd.MustParse("proj(p,e,c) -> task(p,e,O)")
	a := ChaseOne(I, d, &data.NullFactory{})
	b := ChaseOne(I, d, &data.NullFactory{})
	if !a.Instance.Equal(b.Instance) {
		t.Error("chase nondeterministic")
	}
}

func TestMatchBodyBindings(t *testing.T) {
	I := data.NewInstance()
	I.Add(data.NewTuple("r", "1", "2"))
	I.Add(data.NewTuple("r", "3", "4"))
	bindings := MatchBody(tgd.MustParse("r(x,y) -> s(x)").Body, I)
	if len(bindings) != 2 {
		t.Fatalf("bindings = %d", len(bindings))
	}
	// Bindings do not alias each other.
	if bindings[0]["x"] == bindings[1]["x"] {
		t.Error("bindings alias")
	}
}

func TestMatchBodyNoNullMatchForConstant(t *testing.T) {
	// A body constant must not match a labelled null in the instance.
	I := data.NewInstance()
	I.Add(data.Tuple{Rel: "r", Args: []data.Value{data.NullValue("N")}})
	bindings := MatchBody(tgd.MustParse("r('a') -> s('a')").Body, I)
	if len(bindings) != 0 {
		t.Errorf("constant matched null: %v", bindings)
	}
}

// A chase never mints a null label that already labels a null of the
// source: r(⊥N1, a) with a private factory used to yield t(N1, N1) —
// the fresh z conflated with the source null. Renaming the source null
// must leave the chase unchanged up to null renaming.
func TestChaseFreshNullsAvoidSourceNulls(t *testing.T) {
	d := tgd.MustParse("r(x, y) -> t(x, z) & u(z, y)")
	chaseWith := func(lbl string) *Result {
		I := data.NewInstance()
		I.Add(data.Tuple{Rel: "r", Args: []data.Value{data.NullValue(lbl), data.Const("a")}})
		I.Add(data.NewTuple("r", "b", "c"))
		return Chase(I, tgd.Mapping{d}, nil)
	}
	clash, other := chaseWith("N1"), chaseWith("Q")
	first := clash.Blocks[0].Tuples[0]
	if first.Args[0] == first.Args[1] {
		t.Fatalf("fresh null collides with the source null: %v", first)
	}
	canon := func(ts []data.Tuple) string {
		var kb data.BlockKeyBuf
		return string(kb.Key(ts))
	}
	if got, want := canon(clash.Instance.All()), canon(other.Instance.All()); got != want {
		t.Errorf("renaming the source null changed the chase:\n%s\n%s", got, want)
	}
	for bi := range clash.Blocks {
		if got, want := canon(clash.Blocks[bi].Tuples), canon(other.Blocks[bi].Tuples); got != want {
			t.Errorf("block %d: %s, want %s", bi, got, want)
		}
	}
}

// Block.Binding maps body variables to the firing's source values.
func TestBlockBinding(t *testing.T) {
	I := data.NewInstance()
	I.Add(data.NewTuple("r", "1", "2"))
	I.Add(data.NewTuple("s", "2", "3"))
	d := tgd.MustParse("r(x, y) & s(y, w) -> t(x, w, e)")
	res := ChaseOne(I, d, nil)
	if len(res.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(res.Blocks))
	}
	got := res.Blocks[0].Binding(d.BodyVars())
	want := map[string]data.Value{"x": data.Const("1"), "y": data.Const("2"), "w": data.Const("3")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Binding = %v, want %v", got, want)
	}
}

// bruteMatchBody is the test oracle for MatchBody: every tuple
// combination in atom scan order (the first atom's tuple varying
// slowest), kept where constants match and repeated variables agree.
func bruteMatchBody(body []tgd.Atom, I *data.Instance) []map[string]data.Value {
	var out []map[string]data.Value
	var rec func(k int, b map[string]data.Value)
	rec = func(k int, b map[string]data.Value) {
		if k == len(body) {
			out = append(out, b)
			return
		}
	next:
		for _, tu := range I.Tuples(body[k].Rel) {
			if len(tu.Args) != len(body[k].Args) {
				continue
			}
			nb := make(map[string]data.Value, len(b))
			for v, val := range b {
				nb[v] = val
			}
			for p, term := range body[k].Args {
				v := tu.Args[p]
				if term.IsConst {
					if v != data.Const(term.Name) {
						continue next
					}
				} else if bound, ok := nb[term.Name]; ok && bound != v {
					continue next
				} else {
					nb[term.Name] = v
				}
			}
			rec(k+1, nb)
		}
	}
	rec(0, map[string]data.Value{})
	return out
}

// MatchBody's compiled join must enumerate exactly the oracle's
// bindings in the same order, over bodies with joins, repeated
// variables, constants and arity mismatches, and sources with nulls.
func TestMatchBodyMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := []data.Value{data.Const("a"), data.Const("b"), data.Const("c"), data.NullValue("M"), data.Const("M")}
	vars := []string{"x", "y", "z"}
	for trial := 0; trial < 300; trial++ {
		I := data.NewInstance()
		for i := 0; i < 12; i++ {
			args := make([]data.Value, 1+rng.Intn(3))
			for p := range args {
				args[p] = vals[rng.Intn(len(vals))]
			}
			I.Add(data.Tuple{Rel: []string{"r", "s"}[rng.Intn(2)], Args: args})
		}
		body := make([]tgd.Atom, 1+rng.Intn(3))
		for k := range body {
			args := make([]tgd.Term, 1+rng.Intn(3))
			for p := range args {
				if rng.Intn(4) == 0 {
					args[p] = tgd.Const([]string{"a", "b", "M"}[rng.Intn(3)])
				} else {
					args[p] = tgd.Var(vars[rng.Intn(len(vars))])
				}
			}
			body[k] = tgd.Atom{Rel: []string{"r", "s"}[rng.Intn(2)], Args: args}
		}
		got, want := MatchBody(body, I), bruteMatchBody(body, I)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("trial %d: body %v over\n%v\ngot  %v\nwant %v", trial, body, I, got, want)
		}
	}
}

// Validate sanity-checks a chase result: every block tuple must be
// present in the instance, and every null in the instance must have
// been minted by exactly one block.
func (r *Result) Validate() error {
	owner := make(map[string]int)
	for bi, b := range r.Blocks {
		for _, t := range b.Tuples {
			if !r.Instance.Has(t) {
				return fmt.Errorf("chase: block %d tuple %s missing from instance", bi, t)
			}
			for _, lbl := range t.Nulls() {
				if prev, ok := owner[lbl]; ok && prev != bi {
					return fmt.Errorf("chase: null %s shared across blocks %d and %d", lbl, prev, bi)
				}
				owner[lbl] = bi
			}
		}
	}
	return nil
}
