package core_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"schemamap/internal/core"
	"schemamap/internal/cover"
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
// parent without a target instance, and IndexOf resolves its tuples.
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
		t.Fatal("a view has a target instance")
	}
	for j, tu := range sub.JIndex().Tuples {
		if got := sub.JIndex().IndexOf(tu); got != j {
			t.Fatalf("IndexOf(%s) = %d, want %d", tu, got, j)
		}
	}
	if got := sub.JIndex().IndexOf(data.NewTuple("view_extra", "a")); got != -1 {
		t.Fatalf("IndexOf of an absent tuple = %d, want -1", got)
	}
}

// problemState is what a lifecycle mutation can change.
type problemState struct {
	candidates, slots, live, iLen int
	analyses                      []cover.Analysis
	iVersion                      uint64
}

func stateOf(p *core.Problem) problemState {
	return problemState{
		candidates: p.NumCandidates(),
		slots:      p.JIndex().Len(),
		live:       p.NumLiveTuples(),
		analyses:   slices.Clone(p.Analyses()),
		iVersion:   p.I.Version(),
		iLen:       p.I.Len(),
	}
}

// TestSubproblemMutatorsRejected: every lifecycle mutator of a view
// returns the read-only error and changes neither the view nor its
// parent; a fork of the view is mutable.
func TestSubproblemMutatorsRejected(t *testing.T) {
	p, sub, _, _ := viewFixture(t)
	parentBefore, viewBefore := stateOf(p), stateOf(sub)
	src := p.I.All()[0]
	mutators := map[string]func() error{
		"AppendTarget": func() error {
			_, err := sub.AppendTarget([]data.Tuple{data.NewTuple("view_extra", "a")})
			return err
		},
		"RemoveTarget": func() error {
			_, err := sub.RemoveTarget(sub.JIndex().Tuples[:1])
			return err
		},
		"ApplySourceDelta": func() error {
			_, err := sub.ApplySourceDelta(core.SourceDelta{Remove: []data.Tuple{src}})
			return err
		},
		"AddCandidates": func() error {
			_, err := sub.AddCandidates(p.Candidates[:1])
			return err
		},
		"RemoveCandidates": func() error { return sub.RemoveCandidates([]int{0}) },
	}
	for name, mutate := range mutators {
		if err := mutate(); err == nil || !strings.Contains(err.Error(), "read-only") {
			t.Fatalf("%s on a view: error %v, want the read-only error", name, err)
		}
		if !reflect.DeepEqual(stateOf(sub), viewBefore) {
			t.Fatalf("%s on a view changed the view", name)
		}
		if !reflect.DeepEqual(stateOf(p), parentBefore) {
			t.Fatalf("%s on a view changed the parent", name)
		}
	}
	if _, err := sub.Fork().AppendTarget([]data.Tuple{data.NewTuple("view_extra", "a")}); err != nil {
		t.Fatalf("append to a fork of a view: %v", err)
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

// TestSubproblemConcurrentReaders: a view serves concurrent solves,
// IndexOf and forks (run under -race).
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
