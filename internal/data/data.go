// Package data models ground and labelled-null data instances: values,
// tuples, relation-indexed instances, canonical forms, and the
// homomorphism utilities the chase and the Eq. (9) coverage measures
// are built on.
package data

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Value is either a constant (a string) or a labelled null.
// The zero Value is the empty constant.
type Value struct {
	name string
	null bool
}

// Const returns a constant value.
func Const(s string) Value { return Value{name: s} }

// NullValue returns a labelled null with the given label. Labels are
// usually produced by a NullFactory so that they are unique per chase.
func NullValue(label string) Value { return Value{name: label, null: true} }

// IsNull reports whether v is a labelled null.
func (v Value) IsNull() bool { return v.null }

// Name returns the constant text or the null label.
func (v Value) Name() string { return v.name }

// String renders constants verbatim and nulls with a leading '⊥'.
func (v Value) String() string {
	if v.null {
		return "⊥" + v.name
	}
	return v.name
}

// NullFactory mints fresh labelled nulls N1, N2, ..., skipping the
// labels Reserve took.
type NullFactory struct {
	n      int
	minted int
	taken  map[string]bool
	// reserved and reservedAt record the last Reserve, so reserving
	// the same unchanged instance again is free.
	reserved   *Instance
	reservedAt uint64
}

// Fresh returns a new labelled null, distinct from all previous ones
// minted by this factory and from every reserved label.
func (f *NullFactory) Fresh() Value {
	var buf [24]byte
	for {
		f.n++
		lbl := strconv.AppendInt(append(buf[:0], 'N'), int64(f.n), 10)
		if !f.taken[string(lbl)] {
			f.minted++
			return NullValue(string(lbl))
		}
	}
}

// Reserve makes Fresh skip every null label occurring in in, so the
// nulls a chase of in mints never collide with the labelled nulls it
// already holds. On a null-free instance it costs nothing.
func (f *NullFactory) Reserve(in *Instance) {
	if in.nullTuples == 0 || (f.reserved == in && f.reservedAt == in.version) {
		return
	}
	f.reserved, f.reservedAt = in, in.version
	if f.taken == nil {
		f.taken = make(map[string]bool)
	}
	for _, r := range in.order {
		for _, t := range in.rels[r] {
			for _, a := range t.Args {
				if a.IsNull() {
					f.taken[a.Name()] = true
				}
			}
		}
	}
}

// Count returns how many nulls have been minted.
//
//lint:testonly chase and data tests count minted nulls with it
func (f *NullFactory) Count() int { return f.minted }

// Tuple is a fact: a relation name plus an argument list.
type Tuple struct {
	Rel  string
	Args []Value
}

// NewTuple builds a tuple of constants; convenient in tests.
func NewTuple(rel string, consts ...string) Tuple {
	args := make([]Value, len(consts))
	for i, c := range consts {
		args[i] = Const(c)
	}
	return Tuple{Rel: rel, Args: args}
}

// CloneTuples returns a copy of ts whose tuples share no argument
// slice with ts; the copies' arguments share one allocation.
func CloneTuples(ts []Tuple) []Tuple {
	n := 0
	for _, t := range ts {
		n += len(t.Args)
	}
	backing := make([]Value, 0, n)
	out := make([]Tuple, len(ts))
	for k, t := range ts {
		start := len(backing)
		backing = append(backing, t.Args...)
		out[k] = Tuple{Rel: t.Rel, Args: backing[start:len(backing):len(backing)]}
	}
	return out
}

// HasNull reports whether any argument is a labelled null.
func (t Tuple) HasNull() bool {
	for _, a := range t.Args {
		if a.IsNull() {
			return true
		}
	}
	return false
}

// Nulls returns the distinct null labels appearing in t, in order of
// first occurrence.
func (t Tuple) Nulls() []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range t.Args {
		if a.IsNull() && !seen[a.Name()] {
			seen[a.Name()] = true
			out = append(out, a.Name())
		}
	}
	return out
}

// Characters escaped (with a backslash) by the rendered forms below,
// so data can never forge their delimiters: relation names end at the
// first unescaped '(', and constants at the next unescaped ',' or ')'.
// Names without these characters render verbatim.
var (
	relSpecial     = byteSet(`(\`)
	keySpecial     = byteSet(",)\\\x00")
	patternSpecial = byteSet(`,)\*`)
)

func byteSet(chars string) *[256]bool {
	var set [256]bool
	for i := 0; i < len(chars); i++ {
		set[chars[i]] = true
	}
	return &set
}

// appendEscaped appends s to buf, backslash-escaping every byte of s
// in special.
func appendEscaped(buf []byte, s string, special *[256]bool) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		if special[s[i]] {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\')
			start = i
		}
	}
	return append(buf, s[start:]...)
}

// Key returns a canonical string identity for the tuple. Two tuples
// are the same fact iff their keys are equal (null labels included):
// names are escaped, nulls carry a '\x00' prefix, and a tuple of arity
// zero renders without parentheses (so R() and R("") differ).
func (t Tuple) Key() string {
	var arr [64]byte
	return string(t.AppendKey(arr[:0]))
}

// AppendKey appends the tuple's Key to buf, so a set of tuples can be
// probed by string(t.AppendKey(buf)) without allocating.
func (t Tuple) AppendKey(buf []byte) []byte {
	buf = appendEscaped(buf, t.Rel, relSpecial)
	if len(t.Args) == 0 {
		return buf
	}
	buf = append(buf, '(')
	for i, a := range t.Args {
		if i > 0 {
			buf = append(buf, ',')
		}
		if a.IsNull() {
			buf = append(buf, 0) // separate null namespace from constants
		}
		buf = appendEscaped(buf, a.Name(), keySpecial)
	}
	return append(buf, ')')
}

// CanonPattern returns a canonical form that identifies tuples up to
// a renaming of their labelled nulls: constants verbatim (delimiters
// escaped), nulls numbered by first occurrence (so t(a,N1,N1) →
// "t(a,*0,*0)" differs from t(a,N2,N3) → "t(a,*0,*1)"). Two tuples are
// homomorphically equivalent (as single tuples) iff their
// CanonPatterns are equal.
func (t Tuple) CanonPattern() string {
	var lbls []string
	return string(appendCanonPattern(nil, t, &lbls))
}

// String renders the tuple for humans.
func (t Tuple) String() string {
	parts := make([]string, len(t.Args))
	for i, a := range t.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", t.Rel, strings.Join(parts, ", "))
}

// Equal reports exact equality (same relation, same values, same null
// labels).
func (t Tuple) Equal(u Tuple) bool {
	if t.Rel != u.Rel || len(t.Args) != len(u.Args) {
		return false
	}
	for i := range t.Args {
		if t.Args[i] != u.Args[i] {
			return false
		}
	}
	return true
}

// Instance is a set of tuples grouped by relation, with O(1) membership.
type Instance struct {
	rels  map[string][]Tuple
	keys  map[string]bool
	order []string // relation insertion order
	size  int
	// nullTuples counts the tuples holding a labelled null.
	nullTuples int
	// version counts successful mutations (Add/Remove/Union hits), so
	// consumers holding derived state (indices, cover evidence) can
	// detect that the instance changed underneath them.
	version uint64
}

// Version returns a counter that increases on every successful
// mutation of the instance (an Add that inserted, a Remove that
// deleted). Two reads returning the same value bracket a span with no
// mutations; core.Problem uses this to reject solves on stale
// evidence.
func (in *Instance) Version() uint64 { return in.version }

// NewInstance returns an empty instance.
func NewInstance() *Instance {
	return &Instance{rels: make(map[string][]Tuple), keys: make(map[string]bool)}
}

// Add inserts the tuple if not already present; reports whether it was
// inserted.
func (in *Instance) Add(t Tuple) bool {
	k := t.Key()
	if in.keys[k] {
		return false
	}
	in.keys[k] = true
	if _, ok := in.rels[t.Rel]; !ok {
		in.order = append(in.order, t.Rel)
	}
	in.rels[t.Rel] = append(in.rels[t.Rel], t)
	in.size++
	if t.HasNull() {
		in.nullTuples++
	}
	in.version++
	return true
}

// AddAll inserts every tuple, returning the number actually inserted.
func (in *Instance) AddAll(ts []Tuple) int {
	n := 0
	for _, t := range ts {
		if in.Add(t) {
			n++
		}
	}
	return n
}

// Remove deletes the tuple if present; reports whether it was present.
func (in *Instance) Remove(t Tuple) bool {
	k := t.Key()
	if !in.keys[k] {
		return false
	}
	delete(in.keys, k)
	ts := in.rels[t.Rel]
	for i := range ts {
		if ts[i].Equal(t) {
			in.rels[t.Rel] = append(ts[:i:i], ts[i+1:]...)
			break
		}
	}
	in.size--
	if t.HasNull() {
		in.nullTuples--
	}
	in.version++
	return true
}

// Has reports tuple membership (exact, null labels included).
func (in *Instance) Has(t Tuple) bool { return in.keys[t.Key()] }

// Tuples returns the tuples of one relation (shared slice; do not
// mutate).
func (in *Instance) Tuples(rel string) []Tuple { return in.rels[rel] }

// Relations returns the relation names present, in insertion order,
// skipping relations whose tuple lists became empty.
func (in *Instance) Relations() []string {
	out := make([]string, 0, len(in.order))
	for _, r := range in.order {
		if len(in.rels[r]) > 0 {
			out = append(out, r)
		}
	}
	return out
}

// Len returns the total number of tuples.
func (in *Instance) Len() int { return in.size }

// All returns every tuple, grouped by relation in insertion order.
func (in *Instance) All() []Tuple {
	out := make([]Tuple, 0, in.size)
	for _, r := range in.order {
		out = append(out, in.rels[r]...)
	}
	return out
}

// Clone returns a deep-enough copy (tuples are immutable by
// convention, so slices are copied but tuples shared).
func (in *Instance) Clone() *Instance {
	c := NewInstance()
	for _, t := range in.All() {
		c.Add(t)
	}
	return c
}

// Union adds every tuple of other into in.
//
//lint:testonly cover property tests and data tests merge instances with it
func (in *Instance) Union(other *Instance) {
	for _, t := range other.All() {
		in.Add(t)
	}
}

// Equal reports whether two instances hold exactly the same facts.
//
//lint:testonly chase, ibench and data tests compare instances with it
func (in *Instance) Equal(other *Instance) bool {
	if in.size != other.size {
		return false
	}
	for k := range in.keys {
		if !other.keys[k] {
			return false
		}
	}
	return true
}

// String renders the instance sorted for stable test output.
func (in *Instance) String() string {
	lines := make([]string, 0, in.size)
	for _, t := range in.All() {
		lines = append(lines, t.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// MatchConstPositions reports whether cand agrees with t on every
// position where t holds a constant (i.e. whether the single-tuple
// homomorphism condition holds, with cand as the image). Nulls in t
// may map to anything; constants must be preserved.
func MatchConstPositions(t, cand Tuple) bool {
	if t.Rel != cand.Rel || len(t.Args) != len(cand.Args) {
		return false
	}
	for i, a := range t.Args {
		if !a.IsNull() && a != cand.Args[i] {
			return false
		}
	}
	return true
}

// Ground replaces every labelled null in the instance by a fresh
// constant, consistently (the same null maps to the same constant).
// The prefix controls the generated constant names. Used to turn a
// universal solution into a ground data example J.
//
//lint:testonly cover, psl and data tests turn chase results into ground targets with it
func (in *Instance) Ground(prefix string) *Instance {
	out := NewInstance()
	assign := make(map[string]Value)
	next := 0
	for _, t := range in.All() {
		args := make([]Value, len(t.Args))
		for i, a := range t.Args {
			if !a.IsNull() {
				args[i] = a
				continue
			}
			v, ok := assign[a.Name()]
			if !ok {
				next++
				v = Const(fmt.Sprintf("%s%d", prefix, next))
				assign[a.Name()] = v
			}
			args[i] = v
		}
		out.Add(Tuple{Rel: t.Rel, Args: args})
	}
	return out
}
