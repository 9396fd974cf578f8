package tgd

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// cloneTGD returns a deep copy of d.
func cloneTGD(d *TGD) *TGD {
	c := &TGD{}
	for _, a := range d.Body {
		c.Body = append(c.Body, Atom{Rel: a.Rel, Args: slices.Clone(a.Args)})
	}
	for _, a := range d.Head {
		c.Head = append(c.Head, Atom{Rel: a.Rel, Args: slices.Clone(a.Args)})
	}
	return c
}

// randTGD builds a random well-formed tgd from a seeded generator.
func randTGD(rng *rand.Rand) *TGD {
	vars := []string{"x", "y", "z", "w"}
	consts := []string{"a", "b"}
	term := func() Term {
		if rng.Intn(5) == 0 {
			return Const(consts[rng.Intn(len(consts))])
		}
		return Var(vars[rng.Intn(len(vars))])
	}
	atom := func(pfx string, i int) Atom {
		n := 1 + rng.Intn(3)
		args := make([]Term, n)
		for j := range args {
			args[j] = term()
		}
		return Atom{Rel: fmt.Sprintf("%s%d", pfx, i%3), Args: args}
	}
	body := make([]Atom, 1+rng.Intn(2))
	for i := range body {
		body[i] = atom("r", i)
	}
	head := make([]Atom, 1+rng.Intn(2))
	for i := range head {
		head[i] = atom("s", i)
		// Sprinkle existentials.
		if rng.Intn(2) == 0 {
			head[i].Args[rng.Intn(len(head[i].Args))] = Var("E" + string(rune('0'+rng.Intn(2))))
		}
	}
	return &TGD{Body: body, Head: head}
}

// Property: String → Parse is the identity on the DSL rendering.
func TestParseRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randTGD(rng)
		parsed, err := Parse(d.String())
		if err != nil {
			t.Logf("parse %q: %v", d.String(), err)
			return false
		}
		return parsed.String() == d.String() && parsed.Canonical() == d.Canonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Canonical is invariant under systematic variable renaming.
func TestCanonicalRenamingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randTGD(rng)
		renamed := cloneTGD(d)
		ren := func(ts []Term) {
			for i, tm := range ts {
				if !tm.IsConst {
					ts[i] = Var("v_" + tm.Name + "_renamed")
				}
			}
		}
		for i := range renamed.Body {
			ren(renamed.Body[i].Args)
		}
		for i := range renamed.Head {
			ren(renamed.Head[i].Args)
		}
		return d.Canonical() == renamed.Canonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Size is stable under renaming and equals atoms+existentials.
func TestSizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randTGD(rng)
		want := len(d.Body) + len(d.Head) + len(d.ExistVars())
		return d.Size() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Dedup is idempotent and never grows.
func TestDedupProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var m Mapping
		for i := 0; i < 1+rng.Intn(6); i++ {
			m = append(m, randTGD(rng))
		}
		// Duplicate a random member.
		m = append(m, cloneTGD(m[rng.Intn(len(m))]))
		d1 := m.Dedup()
		d2 := d1.Dedup()
		return len(d1) <= len(m) && len(d1) == len(d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
