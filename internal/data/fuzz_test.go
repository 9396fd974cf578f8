package data

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// searchCase is one decoded FuzzSearcherMatchesReference input.
type searchCase struct {
	target []Tuple // distinct, in id order
	dead   []int32 // distinct ids to tombstone
	block  []Tuple
	limit  int
	// appended and second split the target: IndexTuples indexes all
	// but the last appended tuples, and two Appends add the rest, the
	// second one the last second of them.
	appended, second int
}

// byteReader yields the fuzz input byte by byte, then zeros forever,
// so every input decodes.
type byteReader struct{ b []byte }

func (r *byteReader) next() int {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return int(c)
}

var fuzzRels = [...]string{"r", "s", "u"}

// decodeSearchCase reads the input layout:
//
//	limit byte            limit = b % 9 (0 is the default cap)
//	target count byte     n = b % 128 target tuples, each:
//	  header byte           relation fuzzRels[h%3], arity 1 + (h/3)%3
//	  one byte per arg      b >= 250: null ⊥M<b-250>; else constant c<b%40>
//	tombstone count byte  k = b % 32 ids, each one byte: id = b mod |target|
//	block count byte      m = 1 + b%4 block tuples, each:
//	  header byte           as for target tuples
//	  one byte per arg      b < 128: null ⊥N<b%4>; else constant c<(b-128)%40>
//	appended byte         a = b % (|target|+1) target tuples are appended
//	second byte           the last b % (a+1) of them in a second Append
//
// Target ids follow input order, so a relation's tuples may form
// several runs. Duplicate target tuples and repeated tombstones are
// dropped; inputs that end before the append bytes append nothing.
func decodeSearchCase(in []byte) searchCase {
	r := &byteReader{b: in}
	var sc searchCase
	sc.limit = r.next() % 9
	header := func() (string, int) {
		h := r.next()
		return fuzzRels[h%3], 1 + (h/3)%3
	}
	target := NewInstance()
	for n := r.next() % 128; n > 0; n-- {
		rel, arity := header()
		args := make([]Value, arity)
		for p := range args {
			if b := r.next(); b >= 250 {
				args[p] = NullValue("M" + strconv.Itoa(b-250))
			} else {
				args[p] = Const("c" + strconv.Itoa(b%40))
			}
		}
		if t := (Tuple{Rel: rel, Args: args}); !target.Has(t) {
			target.Add(t)
			sc.target = append(sc.target, t)
		}
	}
	seen := make(map[int32]bool)
	for k := r.next() % 32; k > 0; k-- {
		b := r.next()
		if len(sc.target) == 0 {
			continue
		}
		if id := int32(b % len(sc.target)); !seen[id] {
			seen[id] = true
			sc.dead = append(sc.dead, id)
		}
	}
	for m := 1 + r.next()%4; m > 0; m-- {
		rel, arity := header()
		args := make([]Value, arity)
		for p := range args {
			if b := r.next(); b < 128 {
				args[p] = NullValue("N" + strconv.Itoa(b%4))
			} else {
				args[p] = Const("c" + strconv.Itoa((b-128)%40))
			}
		}
		sc.block = append(sc.block, Tuple{Rel: rel, Args: args})
	}
	sc.appended = r.next() % (len(sc.target) + 1)
	sc.second = r.next() % (sc.appended + 1)
	return sc
}

// checkSearchCase builds the index of the case — IndexTuples, two
// Appends, tombstones after the appends — checks every posting list
// against a scan of the tuples, IndexOf against a scan of the live
// tuples and BlockEmbeds against the reference enumeration at each
// stage, compares the Searcher's emission sequence over the index
// with the reference enumeration over the live tuples, and, when the
// case appends, checks EnumerateNewHoms over the appended ids.
func checkSearchCase(t *testing.T, sc searchCase) {
	t.Helper()
	built := len(sc.target) - sc.appended
	ix := IndexTuples(slices.Clone(sc.target[:built]))
	checkPostings(t, ix)
	checkIndexOf(t, ix)
	checkBlockEmbeds(t, ix, sc.block)
	ix.Append(sc.target[built : len(sc.target)-sc.second])
	ix.Append(sc.target[len(sc.target)-sc.second:])
	checkIndexOf(t, ix)
	checkBlockEmbeds(t, ix, sc.block)
	ix.Remove(sc.dead)
	checkPostings(t, ix)
	checkIndexOf(t, ix)
	checkBlockEmbeds(t, ix, sc.block)
	live := liveInstance(ix)
	s := NewSearcher(ix)
	want := collectReference(sc.block, live, sc.limit)
	got := collectIndexed(sc.block, s, sc.limit)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("limit %d, dead %v:\nblock %v\nlive target:\n%v\ngot  %v\nwant %v",
			sc.limit, sc.dead, sc.block, live, got, want)
	}
	// A second search reuses the searcher's scratch.
	if again := collectIndexed(sc.block, s, sc.limit); !reflect.DeepEqual(again, want) {
		t.Fatalf("repeated search diverged:\ngot  %v\nwant %v", again, want)
	}
	if sc.appended > 0 {
		checkNewHoms(t, s, sc.block, int32(built), sc.limit)
	}
	checkCollapse(t, s, sc.block, int32(built), sc.appended > 0)
}

// liveInstance returns the live indexed tuples as an instance, in id
// order: the target the reference enumeration scans.
func liveInstance(ix *Index) *Instance {
	live := NewInstance()
	for id, tu := range ix.tuples {
		if ix.Live(id) {
			live.Add(tu)
		}
	}
	return live
}

// maxReferenceMatches bounds the enumeration checkBlockEmbeds runs
// through the reference. It is twice DefaultHomLimit, so blocks whose
// only total match lies past the default cap are checked.
const maxReferenceMatches = 2 * DefaultHomLimit

// checkBlockEmbeds checks Searcher.BlockEmbeds, with and without
// CollapseInert, against "some reference match maps every tuple": the
// reference enumeration over the live tuples runs until its first
// total match, with a limit above the default cap, so no cap can hide
// a total embedding. A block whose reference enumeration reaches
// maxReferenceMatches+1 matches without a total one is skipped.
func checkBlockEmbeds(t *testing.T, ix *Index, block []Tuple) {
	t.Helper()
	want, emitted := false, 0
	EnumeratePartialHoms(block, liveInstance(ix), maxReferenceMatches+1, func(m BlockMatch) bool {
		emitted++
		want = !slices.Contains(m.Mapped, false)
		return !want
	})
	if !want && emitted > maxReferenceMatches {
		return
	}
	s := NewSearcher(ix)
	for _, collapse := range []bool{false, true} {
		s.CollapseInert = collapse
		if got := s.BlockEmbeds(block); got != want {
			t.Fatalf("BlockEmbeds(%v) = %v with CollapseInert %v, the reference finds a total match: %v\nindex tuples %v, dead %v",
				block, got, collapse, want, ix.tuples, ix.dead)
		}
	}
}

// checkCollapse checks Searcher.CollapseInert against the full
// enumeration, at limits 1–8 and the default, for EnumeratePartialHoms
// and, when the case appends, EnumerateNewHoms over the ids from base
// on: the collapsed search returns the full one's count, and its
// emissions equal the full one's as sets once inert tuples are
// unmapped (see inertFree).
func checkCollapse(t *testing.T, s *Searcher, block []Tuple, base int32, appended bool) {
	t.Helper()
	type search struct {
		name string
		run  func(limit int, emit func(*IndexedMatch) bool) int
	}
	searches := []search{{"EnumeratePartialHoms", func(limit int, emit func(*IndexedMatch) bool) int {
		return s.EnumeratePartialHoms(block, limit, emit)
	}}}
	if appended {
		searches = append(searches, search{"EnumerateNewHoms", func(limit int, emit func(*IndexedMatch) bool) int {
			return s.EnumerateNewHoms(block, base, limit, emit)
		}})
	}
	defer func() { s.CollapseInert = false }()
	for _, sr := range searches {
		for limit := 0; limit <= 8; limit++ {
			var n [2]int
			var sets [2][]string
			for c, collapse := range []bool{false, true} {
				s.CollapseInert = collapse
				seen := make(map[string]bool)
				n[c] = sr.run(limit, func(m *IndexedMatch) bool {
					if k := inertFree(block, m); !seen[k] {
						seen[k] = true
						sets[c] = append(sets[c], k)
					}
					return true
				})
				slices.Sort(sets[c])
			}
			if n[1] != n[0] || !slices.Equal(sets[1], sets[0]) {
				t.Fatalf("%s, limit %d, block %v: collapsed count %d, full %d\ncollapsed %v\nfull      %v",
					sr.name, limit, block, n[1], n[0], sets[1], sets[0])
			}
		}
	}
}

// inertFree renders a match with its inert tuples unmapped: the mapped
// tuples without a constant none of whose nulls occurs in another
// mapped tuple. The inert leaf CollapseInert folds is one of them, and
// unmapping them changes no other tuple's status.
func inertFree(block []Tuple, m *IndexedMatch) string {
	images := make([]int32, len(block))
	for i := range block {
		images[i] = -1
		if m.Mapped[i] && !inert(block, m.Mapped, i) {
			images[i] = m.Image[i]
		}
	}
	return fmt.Sprint(images)
}

// inert reports whether block tuple i, mapped, has no constant and
// shares no null with another mapped tuple.
func inert(block []Tuple, mapped []bool, i int) bool {
	for _, a := range block[i].Args {
		if !a.IsNull() {
			return false
		}
		for j, other := range block {
			if j != i && mapped[j] && slices.Contains(other.Args, a) {
				return false
			}
		}
	}
	return true
}

// checkNewHoms checks EnumerateNewHoms against a filter of the full
// enumeration: without a cap it emits, in some order, exactly the full
// enumeration's matches that map a tuple to an id ≥ base (compared
// when the full enumeration completes under the default cap), and
// under limit it emits min(limit, that many) of them.
func checkNewHoms(t *testing.T, s *Searcher, block []Tuple, base int32, limit int) {
	t.Helper()
	key := func(m *IndexedMatch) (string, bool) {
		images, isNew := make([]int32, len(m.Mapped)), false
		for i, ok := range m.Mapped {
			images[i] = -1
			if ok {
				images[i] = m.Image[i]
				isNew = isNew || m.Image[i] >= base
			}
		}
		return fmt.Sprint(images), isNew
	}
	var want []string
	if s.EnumeratePartialHoms(block, 0, func(m *IndexedMatch) bool {
		if k, isNew := key(m); isNew {
			want = append(want, k)
		}
		return true
	}) == DefaultHomLimit {
		return
	}
	var got []string
	n := s.EnumerateNewHoms(block, base, DefaultHomLimit, func(m *IndexedMatch) bool {
		k, isNew := key(m)
		if !isNew {
			t.Fatalf("EnumerateNewHoms emitted %s, which maps no tuple to an id ≥ %d", k, base)
		}
		got = append(got, k)
		return true
	})
	slices.Sort(got)
	slices.Sort(want)
	if n != len(got) || !slices.Equal(got, want) {
		t.Fatalf("EnumerateNewHoms (base %d, count %d) on block %v:\ngot  %v\nwant %v", base, n, block, got, want)
	}
	if limit > 0 {
		if n := s.EnumerateNewHoms(block, base, limit, func(*IndexedMatch) bool { return true }); n != min(limit, len(want)) {
			t.Fatalf("EnumerateNewHoms under limit %d emitted %d of %d", limit, n, len(want))
		}
	}
}

// checkIndexOf checks IndexOf and NumLive against a scan of the live
// tuples, for every indexed tuple and three absent variants of each:
// another relation, another last argument, and one argument more.
func checkIndexOf(t *testing.T, ix *Index) {
	t.Helper()
	live := 0
	scan := func(q Tuple) int {
		for id, tu := range ix.tuples {
			if ix.Live(id) && tu.Equal(q) {
				return id
			}
		}
		return -1
	}
	for id, tu := range ix.tuples {
		if ix.Live(id) {
			live++
		}
		changed := Tuple{Rel: tu.Rel, Args: slices.Clone(tu.Args)}
		changed.Args[len(changed.Args)-1] = Const("absent")
		longer := Tuple{Rel: tu.Rel, Args: append(slices.Clone(tu.Args), Const("c0"))}
		for _, q := range []Tuple{tu, {Rel: "absent", Args: tu.Args}, changed, longer} {
			if got, want := ix.IndexOf(q), scan(q); got != want {
				t.Fatalf("IndexOf(%v) = %d, a scan of the live tuples finds %d", q, got, want)
			}
		}
	}
	if ix.NumLive() != live {
		t.Fatalf("NumLive = %d, %d tuples live", ix.NumLive(), live)
	}
}

// checkPostings checks every posting list of ix against a scan of its
// tuples: the relation lists and the (relation, position, value) lists
// — constants' and nulls' alike — hold exactly the ids a scan finds,
// in ascending order, tombstoned ids included.
func checkPostings(t *testing.T, ix *Index) {
	t.Helper()
	lists := 0
	for rel, rp := range ix.rels {
		var want []int32
		for id, tu := range ix.tuples {
			if tu.Rel == rel {
				want = append(want, int32(id))
			}
		}
		if got := ix.list(rp.all); !slices.Equal(got, want) {
			t.Fatalf("relation %s lists %v, scan finds %v", rel, got, want)
		}
		lists++
		for p := range rp.consts {
			for _, v := range postedValues(rp, p) {
				want = want[:0]
				for id, tu := range ix.tuples {
					if tu.Rel == rel && p < len(tu.Args) && tu.Args[p] == v {
						want = append(want, int32(id))
					}
				}
				if got := ix.posting(rp, p, v); !slices.Equal(got, want) {
					t.Fatalf("%s position %d value %v lists %v, scan finds %v", rel, p, v, got, want)
				}
				lists++
			}
		}
	}
	// Every list is reachable, and every value of every tuple has one
	// (the scans above only visit the values the maps hold).
	for _, tu := range ix.tuples {
		for p, a := range tu.Args {
			if len(ix.posting(ix.rels[tu.Rel], p, a)) == 0 {
				t.Fatalf("%v: no posting list for position %d", tu, p)
			}
		}
	}
	n := len(ix.start) - 1
	if ix.grown != nil {
		n = len(ix.grown)
	}
	if n != lists {
		t.Fatalf("index holds %d lists, %d reachable", n, lists)
	}
}

// The indexed searcher — CSR posting lists, appends, bound-null probes
// and tombstones included — must emit exactly the reference
// enumeration's sequence, and its inert-leaf collapse must keep the
// counts and, up to inert tuples, the matches. The committed corpus
// seeds link-table blocks over relations larger than probeCutoff (so
// the bound-null probe runs), repeated nulls, target nulls,
// tombstones, limits 1 and 7, relations in several runs, and appends.
func FuzzSearcherMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		checkSearchCase(t, decodeSearchCase(in))
	})
}

// FuzzReadCSV feeds arbitrary bytes to ReadCSV, the loader behind the
// exchange CLI's -in relations. It must never panic, and every tuple
// it returns must carry the relation name and the width of the first
// one. The seed corpus lives under testdata/fuzz/FuzzReadCSV.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("a,b\n1,\"x,y\"\n,\n"), true)
	f.Fuzz(func(t *testing.T, b []byte, header bool) {
		tuples, err := ReadCSV(bytes.NewReader(b), "r", header)
		if err != nil {
			return
		}
		for i, tu := range tuples {
			if tu.Rel != "r" {
				t.Fatalf("tuple %d has relation %q", i, tu.Rel)
			}
			if len(tu.Args) != len(tuples[0].Args) {
				t.Fatalf("tuple %d has %d fields, tuple 0 has %d", i, len(tu.Args), len(tuples[0].Args))
			}
		}
	})
}
