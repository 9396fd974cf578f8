package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"schemamap/internal/bench"
	"schemamap/internal/core"
	"schemamap/internal/data"
	"schemamap/internal/ibench"
)

// viewFixture prepares an ibench problem and its full-span view: every
// candidate and every tuple, which is trivially evidence-closed.
func viewFixture(t *testing.T) (p, sub *core.Problem, cands, tuples []int) {
	t.Helper()
	cfg := ibench.DefaultConfig(6, 17)
	cfg.Rows = 8
	cfg.PiErrors = 10
	sc, err := ibench.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	p = core.NewProblem(sc.I, sc.J, sc.Candidates)
	p.Prepare()
	for i := 0; i < p.NumCandidates(); i++ {
		cands = append(cands, i)
	}
	for j := 0; j < p.JIndex().Len(); j++ {
		tuples = append(tuples, j)
	}
	return p, p.Subproblem(cands, tuples), cands, tuples
}

// TestSubproblemIsView: a sub-problem solves and evaluates like its
// parent without ever building a target instance; IndexOf resolves
// on demand, and the first lifecycle mutation builds the target.
func TestSubproblemIsView(t *testing.T) {
	p, sub, _, _ := viewFixture(t)
	sel, err := core.MustGet("collective").Solve(context.Background(), sub)
	if err != nil {
		t.Fatalf("solve view: %v", err)
	}
	if got, want := sub.Objective(sel.Chosen), p.Objective(sel.Chosen); got != want {
		t.Fatalf("view objective %+v != parent %+v", got, want)
	}
	if sub.J != nil {
		t.Fatal("solving a view built its target instance")
	}
	for j, tu := range sub.JIndex().Tuples {
		if got := sub.JIndex().IndexOf(tu); got != j {
			t.Fatalf("IndexOf(%s) = %d, want %d", tu, got, j)
		}
	}
	if sub.J != nil {
		t.Fatal("IndexOf on a view built its target instance")
	}
	extra := data.NewTuple("view_extra", "a")
	if _, err := sub.AppendTarget([]data.Tuple{extra}); err != nil {
		t.Fatalf("append to view: %v", err)
	}
	if sub.J == nil || sub.J.Len() != p.JIndex().Len()+1 || !sub.J.Has(extra) {
		t.Fatal("AppendTarget did not build the view's target with the appended tuple")
	}
	if p.J.Has(extra) {
		t.Fatal("append to a view reached the parent target")
	}
	cold := core.NewProblem(p.I, sub.J.Clone(), p.Candidates)
	if !bench.EvidenceIdentical(sub, cold) {
		t.Fatal("view evidence after append differs from a cold Prepare")
	}
}

// TestSubproblemRejectsBadIndexSets: non-ascending tuple ids and sets
// that cut through the evidence panic instead of corrupting solvers.
func TestSubproblemRejectsBadIndexSets(t *testing.T) {
	p, _, cands, tuples := viewFixture(t)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	swapped := append([]int(nil), tuples...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	mustPanic("unsorted tuples", func() { p.Subproblem(cands, swapped) })
	covered := -1
	for i, a := range p.Analyses() {
		if len(a.Pairs) > 0 {
			covered = i
			break
		}
	}
	if covered < 0 {
		t.Fatal("fixture has no covering candidate")
	}
	missing := int(p.Analyses()[covered].Pairs[0].J)
	open := append(append([]int(nil), tuples[:missing]...), tuples[missing+1:]...)
	mustPanic("open index set", func() { p.Subproblem([]int{covered}, open) })
}

// TestSubproblemConcurrentReaders: the on-demand index build of a view
// is safe against concurrent solves, evaluations, IndexOf and forks
// (run under -race).
func TestSubproblemConcurrentReaders(t *testing.T) {
	_, sub, _, _ := viewFixture(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 2; w++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			if _, err := core.MustGet("greedy").Solve(context.Background(), sub); err != nil {
				errs <- err
			}
		}()
		go func() {
			defer wg.Done()
			for _, tu := range sub.JIndex().Tuples {
				if sub.JIndex().IndexOf(tu) < 0 {
					errs <- fmt.Errorf("IndexOf missed view tuple %s", tu)
					return
				}
			}
			sub.JIndex().Index()
		}()
		go func() {
			defer wg.Done()
			if f := sub.Fork(); f.J.Len() != sub.JIndex().Len() {
				errs <- fmt.Errorf("fork target holds %d tuples, want %d", f.J.Len(), sub.JIndex().Len())
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent reader failed: %v", err)
	}
}
