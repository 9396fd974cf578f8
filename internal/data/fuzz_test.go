package data

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"
)

// searchCase is one decoded FuzzSearcherMatchesReference input.
type searchCase struct {
	target []Tuple // distinct, in id order
	dead   []int32 // distinct ids to tombstone
	block  []Tuple
	limit  int
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
//
// Duplicate target tuples and repeated tombstones are dropped.
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
		target.Add(Tuple{Rel: rel, Args: args})
	}
	sc.target = target.All()
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
	return sc
}

// checkSearchCase compares the Searcher's emission sequence over the
// tombstoned index with the reference enumeration over the live
// tuples.
func checkSearchCase(t *testing.T, sc searchCase) {
	t.Helper()
	ix := IndexTuples(sc.target)
	ix.Remove(sc.dead)
	live := NewInstance()
	for id, tu := range sc.target {
		if ix.Live(int32(id)) {
			live.Add(tu)
		}
	}
	s := NewSearcher(ix)
	want := collectReference(sc.block, live, sc.limit)
	got := collectIndexed(sc.block, s, sc.limit)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("limit %d, dead %v:\nblock %v\nlive target:\n%v\ngot  %v\nwant %v",
			sc.limit, sc.dead, sc.block, live, got, want)
	}
	// A second search reuses the searcher's memos and scratch.
	if again := collectIndexed(sc.block, s, sc.limit); !reflect.DeepEqual(again, want) {
		t.Fatalf("repeated search diverged:\ngot  %v\nwant %v", again, want)
	}
}

// The indexed searcher — candidate memos, bound-null probes and
// tombstones included — must emit exactly the reference enumeration's
// sequence. The committed corpus seeds link-table blocks over
// relations larger than probeCutoff (so the bound-null probe runs),
// repeated nulls, target nulls, tombstones and limits 1 and 7.
func FuzzSearcherMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		checkSearchCase(t, decodeSearchCase(in))
	})
}

// Live reports whether id is indexed and not tombstoned.
func (ix *Index) Live(id int32) bool {
	if id < 0 || int(id) >= len(ix.tuples) {
		return false
	}
	return ix.dead == nil || !ix.dead[id]
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
