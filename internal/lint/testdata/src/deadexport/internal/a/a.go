package a

import "fmt"

// Dead has no caller anywhere.
func Dead() {} // want `deadexport/internal/a.Dead is exported but no non-test code uses it`

// Used is called from inside its own package.
func Used() int { return 1 }

func helper() int { return Used() }

// T's String method satisfies fmt.Stringer.
type T struct{ n int }

func (t T) String() string { return fmt.Sprint(t.n + helper()) }

// Kept is used only by other packages' tests.
//
//lint:testonly other packages' tests call it
func Kept() {}

//lint:testonly
func Bare() {} // want `//lint:testonly annotation on Bare requires a reason`

// Pub is re-exported by package pub. The alias makes the type public,
// not its methods: one nothing calls is dead like any other export.
type Pub struct{}

func (Pub) Method() {} // want `\(deadexport/internal/a.Pub\).Method is exported but no non-test code uses it`
