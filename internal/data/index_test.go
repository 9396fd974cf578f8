package data

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randomInstance builds an instance with a few relations, shared
// values, and (optionally) null-valued tuples.
func randomInstance(rng *rand.Rand, tuples int, withNulls bool) *Instance {
	in := NewInstance()
	rels := []string{"r", "s", "u"}
	vals := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < tuples; i++ {
		rel := rels[rng.Intn(len(rels))]
		arity := 1 + rng.Intn(3)
		args := make([]Value, arity)
		for p := range args {
			if withNulls && rng.Intn(6) == 0 {
				args[p] = NullValue(fmt.Sprintf("M%d", rng.Intn(4)))
			} else {
				args[p] = Const(vals[rng.Intn(len(vals))])
			}
		}
		in.Add(Tuple{Rel: rel, Args: args})
	}
	return in
}

// randomBlock builds a block of tuples mixing constants and shared
// nulls, the shape the chase produces.
func randomBlock(rng *rand.Rand) []Tuple {
	rels := []string{"r", "s", "u"}
	vals := []string{"a", "b", "c", "d", "e"}
	n := 1 + rng.Intn(3)
	block := make([]Tuple, n)
	for i := range block {
		arity := 1 + rng.Intn(3)
		args := make([]Value, arity)
		for p := range args {
			if rng.Intn(3) == 0 {
				args[p] = NullValue(fmt.Sprintf("N%d", rng.Intn(3)))
			} else {
				args[p] = Const(vals[rng.Intn(len(vals))])
			}
		}
		block[i] = Tuple{Rel: rels[rng.Intn(len(rels))], Args: args}
	}
	return block
}

// randomNullBlock builds a block of two to four tuples that are mostly
// shared nulls — link-table shapes, whose later tuples are narrowed by
// nulls bound earlier rather than by constants.
func randomNullBlock(rng *rand.Rand) []Tuple {
	block := make([]Tuple, 2+rng.Intn(3))
	for i := range block {
		args := make([]Value, 1+rng.Intn(3))
		for p := range args {
			if rng.Intn(4) == 0 {
				args[p] = Const(string(rune('a' + rng.Intn(5))))
			} else {
				args[p] = NullValue(fmt.Sprintf("N%d", rng.Intn(3)))
			}
		}
		block[i] = Tuple{Rel: []string{"r", "s", "u"}[rng.Intn(3)], Args: args}
	}
	return block
}

// collect runs the reference enumeration and returns the emitted
// (Mapped, Image-key) sequences.
type flatMatch struct {
	Mapped []bool
	Images []string
}

func collectReference(block []Tuple, target *Instance, limit int) []flatMatch {
	var out []flatMatch
	EnumeratePartialHoms(block, target, limit, func(m BlockMatch) bool {
		fm := flatMatch{Mapped: append([]bool(nil), m.Mapped...)}
		for i, ok := range m.Mapped {
			if ok {
				fm.Images = append(fm.Images, m.Image[i].Key())
			} else {
				fm.Images = append(fm.Images, "")
			}
		}
		out = append(out, fm)
		return true
	})
	return out
}

func collectIndexed(block []Tuple, s *Searcher, limit int) []flatMatch {
	var out []flatMatch
	s.EnumeratePartialHoms(block, limit, func(m *IndexedMatch) bool {
		fm := flatMatch{Mapped: append([]bool(nil), m.Mapped...)}
		for i, ok := range m.Mapped {
			if ok {
				fm.Images = append(fm.Images, s.Index().Tuples()[m.Image[i]].Key())
			} else {
				fm.Images = append(fm.Images, "")
			}
		}
		out = append(out, fm)
		return true
	})
	return out
}

// The indexed searcher must emit exactly the reference sequence —
// same matches, same order — including under tight hom limits, so
// capped analyses stay bit-identical across the two paths. Every
// other trial tombstones a random subset of the target (after the
// appends), which the reference sees as the live tuples only; the
// larger targets put more than probeCutoff tuples in a relation, so
// bound-null probes run. Half the trials shuffle the target, so a
// relation's tuples form several non-adjacent runs, and three in four
// index part of it with IndexTuples and Append the rest in two
// batches, which extends CSR lists and starts new ones.
func TestIndexedSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 300; trial++ {
		size, block := 4+rng.Intn(30), randomBlock(rng)
		if trial%3 == 2 {
			size, block = 150+rng.Intn(100), randomNullBlock(rng)
		}
		target := randomInstance(rng, size, trial%3 == 0).All()
		if trial%2 == 0 {
			rng.Shuffle(len(target), func(i, j int) { target[i], target[j] = target[j], target[i] })
		}
		appended, second := 0, 0
		if trial%4 != 0 {
			appended = rng.Intn(len(target) + 1)
			second = rng.Intn(appended + 1)
		}
		var dead []int32
		if trial%2 == 1 {
			for id := range target {
				if rng.Intn(4) == 0 {
					dead = append(dead, int32(id))
				}
			}
		}
		for _, limit := range []int{0, 1, 7} {
			checkSearchCase(t, searchCase{target: target, dead: dead, block: block, limit: limit, appended: appended, second: second})
		}
	}
}

// Index.Embeds must agree with the reference TupleEmbeds over the live
// tuples from its id on, with and without tombstones.
func TestIndexedTupleEmbedsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		target := randomInstance(rng, 3+rng.Intn(25), false).All()
		ix := IndexTuples(target)
		from := int32(0)
		if trial%3 == 2 {
			from = int32(rng.Intn(len(target) + 1))
		}
		live := NewInstance()
		for id, tu := range target {
			if trial%2 == 1 && rng.Intn(4) == 0 {
				ix.Remove([]int32{int32(id)})
				continue
			}
			if int32(id) >= from {
				live.Add(tu)
			}
		}
		for q := 0; q < 20; q++ {
			tu := randomBlock(rng)[0]
			if got, want := ix.Embeds(tu, from), TupleEmbeds(tu, live); got != want {
				t.Fatalf("trial %d: Index.Embeds(%v, %d) = %v, reference %v", trial, tu, from, got, want)
			}
		}
	}
}

func TestIndexCandidates(t *testing.T) {
	in := NewInstance()
	in.Add(NewTuple("r", "a", "b"))
	in.Add(NewTuple("r", "a", "c"))
	in.Add(NewTuple("r", "d", "b"))
	in.Add(NewTuple("s", "a", "b"))
	ix := IndexTuples(in.All())

	probe := func(t Tuple) []string {
		var out []string
		for _, id := range ix.Candidates(t) {
			out = append(out, ix.Tuples()[id].Key())
		}
		return out
	}

	got := probe(Tuple{Rel: "r", Args: []Value{Const("a"), NullValue("N")}})
	if len(got) != 2 || got[0] != NewTuple("r", "a", "b").Key() || got[1] != NewTuple("r", "a", "c").Key() {
		t.Errorf("r(a,N) candidates = %v", got)
	}
	if got := probe(Tuple{Rel: "r", Args: []Value{NullValue("N"), NullValue("M")}}); len(got) != 3 {
		t.Errorf("r(N,M) candidates = %v, want all 3 r tuples", got)
	}
	if got := probe(NewTuple("r", "a", "b")); len(got) != 1 {
		t.Errorf("ground probe = %v, want exact match only", got)
	}
	if got := probe(NewTuple("r", "z", "b")); len(got) != 0 {
		t.Errorf("missing-constant probe = %v, want none", got)
	}
	// Arity mismatches never match.
	if got := probe(Tuple{Rel: "r", Args: []Value{NullValue("N")}}); len(got) != 0 {
		t.Errorf("arity-1 probe against arity-2 relation = %v, want none", got)
	}
}

// Appending to one value's posting list must leave every other list
// as it was — above all its neighbour in the CSR backing array, which
// a list extended in place would overwrite — and keep the extended
// list ascending.
func TestAppendKeepsCSRNeighbours(t *testing.T) {
	ix := IndexTuples([]Tuple{
		NewTuple("r", "a", "x"),
		NewTuple("r", "b", "x"),
		NewTuple("r", "a", "y"),
		NewTuple("r", "b", "y"),
		NewTuple("s", "a"),
	})
	snapshot := func() map[string][]int32 {
		out := make(map[string][]int32)
		for rel, rp := range ix.rels {
			out[rel] = slices.Clone(ix.list(rp.all))
			for p := range rp.consts {
				for _, v := range postedValues(rp, p) {
					out[fmt.Sprintf("%s.%d.%s", rel, p, v)] = slices.Clone(ix.posting(rp, p, v))
				}
			}
		}
		return out
	}
	before := snapshot()
	// r.0.a is cut from the backing array right before r.0.b. The
	// first Append extends r.0.a and r.1.x and starts r.1.z and r.0.c;
	// the second extends r.0.a again, now out of the backing array.
	ix.Append([]Tuple{NewTuple("r", "a", "z"), NewTuple("r", "c", "x")})
	ix.Append([]Tuple{NewTuple("r", "a", "w")})
	after := snapshot()
	want := map[string][]int32{
		"r":     {0, 1, 2, 3, 5, 6, 7},
		"r.0.a": {0, 2, 5, 7},
		"r.0.c": {6},
		"r.1.x": {0, 1, 6},
		"r.1.z": {5},
		"r.1.w": {7},
	}
	for key, list := range after {
		w, changed := want[key]
		if !changed {
			w = before[key]
		}
		if !slices.Equal(list, w) {
			t.Errorf("after Append, list %s = %v, want %v", key, list, w)
		}
	}
	if len(after) != len(before)+3 {
		t.Errorf("Append left %d lists, want %d", len(after), len(before)+3)
	}
}

// The search scratch must make repeated enumerations allocation-free
// once the first search has grown it.
func TestSearcherSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	target := randomInstance(rng, 50, false)
	block := randomBlock(rng)
	s := NewSearcher(IndexTuples(target.All()))
	run := func() {
		s.EnumeratePartialHoms(block, 0, func(m *IndexedMatch) bool { return true })
	}
	run() // grow the scratch
	if avg := testing.AllocsPerRun(20, run); avg > 0 {
		t.Errorf("steady-state enumeration allocates %.1f objects/run, want 0", avg)
	}
}

// IndexOf probes the posting lists without allocating, over live and
// tombstoned tuples alike.
func TestIndexOfAllocs(t *testing.T) {
	tuples := randomInstance(rand.New(rand.NewSource(5)), 50, false).All()
	ix := IndexTuples(tuples)
	ix.Remove([]int32{0})
	lookups := func() {
		for _, tu := range tuples {
			ix.IndexOf(tu)
		}
	}
	if avg := testing.AllocsPerRun(20, lookups); avg > 0 {
		t.Errorf("IndexOf over %d tuples allocates %.1f objects/run, want 0", len(tuples), avg)
	}
}

// Index returns the underlying index.
func (s *Searcher) Index() *Index { return s.ix }

// postedValues returns the values rp holds a posting list for at
// position p: its constants, then its labelled nulls.
func postedValues(rp *relPostings, p int) []Value {
	var vals []Value
	for text := range rp.consts[p] {
		vals = append(vals, Const(text))
	}
	for lbl := range rp.nulls[p] {
		vals = append(vals, NullValue(lbl))
	}
	return vals
}

// A constant and a labelled null of the same text, x and ⊥x, are
// different values. Where one position holds both, every lookup — the
// posting lists, Candidates, Embeds, IndexOf, a searcher's bound-null
// probe and TupleEmbeds — must reach the one it asks for and never the
// other.
func TestConstantAndNullKeysStayApart(t *testing.T) {
	x, nx := Const("x"), NullValue("x")
	r := func(a, b Value) Tuple { return Tuple{Rel: "r", Args: []Value{a, b}} }
	s := func(a Value) Tuple { return Tuple{Rel: "s", Args: []Value{a}} }
	tuples := []Tuple{r(x, Const("a")), r(nx, Const("b")), r(x, Const("c")), s(x), s(nx)}
	// Filler, so that an all-null r tuple has more than probeCutoff
	// candidates and the search narrows them by its bound null.
	for i := 0; i < 2*probeCutoff; i++ {
		tuples = append(tuples, r(Const(fmt.Sprint("f", i)), Const("a")))
	}
	ix := IndexTuples(tuples)
	checkPostings(t, ix)
	rp := ix.rels["r"]
	for _, c := range []struct {
		v    Value
		want []int32
	}{{x, []int32{0, 2}}, {nx, []int32{1}}} {
		if got := ix.posting(rp, 0, c.v); !slices.Equal(got, c.want) {
			t.Errorf("posting(r, 0, %v) = %v, want %v", c.v, got, c.want)
		}
	}
	for _, c := range []struct {
		q    Tuple
		want []int32
	}{
		{r(x, NullValue("v")), []int32{0, 2}},
		{r(x, Const("b")), nil},
		{s(x), []int32{3}},
	} {
		if got := ix.Candidates(c.q); !slices.Equal(got, c.want) {
			t.Errorf("Candidates(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		q    Tuple
		want bool
	}{
		{r(x, Const("b")), false},
		{r(x, Const("c")), true},
		{r(NullValue("v"), Const("b")), true},
		{r(NullValue("v"), NullValue("v")), false}, // no r tuple repeats a value
	} {
		if got := ix.Embeds(c.q, 0); got != c.want {
			t.Errorf("Embeds(%v) = %v, want %v", c.q, got, c.want)
		}
		sr := NewSearcher(ix)
		sr.EnumeratePartialHoms([]Tuple{c.q}, 0, func(*IndexedMatch) bool { return true })
		if got := sr.TupleEmbeds(0, c.q); got != c.want {
			t.Errorf("TupleEmbeds(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		q    Tuple
		want int
	}{{r(nx, Const("b")), 1}, {r(x, Const("b")), -1}, {r(nx, Const("a")), -1}, {s(x), 3}, {s(nx), 4}} {
		if got := ix.IndexOf(c.q); got != c.want {
			t.Errorf("IndexOf(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	// s(⊥u) binds u to x or to ⊥x; r(⊥u, ⊥v) must then map onto the r
	// tuples holding that very value.
	var got [][2]int32
	NewSearcher(ix).EnumeratePartialHoms([]Tuple{s(NullValue("u")), r(NullValue("u"), NullValue("v"))}, 0, func(m *IndexedMatch) bool {
		if m.Mapped[0] && m.Mapped[1] {
			got = append(got, [2]int32{m.Image[0], m.Image[1]})
		}
		return true
	})
	if want := [][2]int32{{3, 0}, {3, 2}, {4, 1}}; !slices.Equal(got, want) {
		t.Errorf("bound-null matches = %v, want %v", got, want)
	}
}
