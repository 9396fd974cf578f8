package shard_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"schemamap/internal/bench"
	"schemamap/internal/core"
	"schemamap/internal/data"
	"schemamap/internal/ibench"
	"schemamap/internal/shard"
	"schemamap/internal/tgd"
)

// shardSnapshot records what a shard's solvers see: its target tuples
// and its objective at a few fixed selections.
type shardSnapshot struct {
	tuples []data.Tuple
	live   int
	objs   []core.Breakdown
}

func snapshotShard(sh shard.Shard) shardSnapshot {
	jidx := sh.Problem.JIndex()
	s := shardSnapshot{tuples: append([]data.Tuple(nil), jidx.Tuples...), live: jidx.NumLive()}
	n := sh.Problem.NumCandidates()
	for _, pick := range []func(int) bool{
		func(int) bool { return false },
		func(int) bool { return true },
		func(k int) bool { return k%2 == 0 },
	} {
		sel := make([]bool, n)
		for k := range sel {
			sel[k] = pick(k)
		}
		s.objs = append(s.objs, sh.Problem.Objective(sel))
	}
	return s
}

// TestShardsDetachedFromParent: target mutations on the parent after
// a split leave every shard's tuples and objectives untouched.
func TestShardsDetachedFromParent(t *testing.T) {
	sc, err := ibench.Generate(noisyConfig(10, 10, 3))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	stream, err := ibench.SplitTarget(sc, ibench.StreamConfig{Batches: 1, InitialFrac: 0.6, Seed: 3})
	if err != nil {
		t.Fatalf("split target: %v", err)
	}
	p := core.NewProblem(sc.I, stream.Initial, sc.Candidates)
	p.PrepareStreaming(1)
	shards := shard.SplitN(p, 2)
	before := make([]shardSnapshot, len(shards))
	for c, sh := range shards {
		before[c] = snapshotShard(sh)
	}

	if _, err := p.AppendTarget(stream.Batches[0]); err != nil {
		t.Fatalf("parent append: %v", err)
	}
	var victims []data.Tuple
	for j, tu := range p.JIndex().Tuples {
		if j%3 == 0 {
			victims = append(victims, tu)
		}
	}
	if _, err := p.RemoveTarget(victims); err != nil {
		t.Fatalf("parent remove: %v", err)
	}

	for c, sh := range shards {
		after := snapshotShard(sh)
		if !tuplesEqual(after.tuples, before[c].tuples) || after.live != before[c].live {
			t.Fatalf("shard %d: target changed after parent mutations", c)
		}
		if !reflect.DeepEqual(after.objs, before[c].objs) {
			t.Fatalf("shard %d: objectives %v changed to %v after parent mutations", c, before[c].objs, after.objs)
		}
	}
}

func tuplesEqual(a, b []data.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// coldOver prepares a fresh problem over the given target tuples.
func coldOver(p *core.Problem, tuples []data.Tuple) *core.Problem {
	J := data.NewInstance()
	J.AddAll(tuples)
	cold := core.NewProblem(p.I, J, p.Candidates)
	cold.Prepare()
	return cold
}

// TestShardLifecycle: a shard view is read-only, and Fork and
// ForkDetached turn it into an owned problem whose evidence matches a
// cold Prepare over the shard's tuples, before and after an append,
// without touching the shard or the parent.
func TestShardLifecycle(t *testing.T) {
	p := scenarioProblem(t, noisyConfig(10, 10, 5))
	shards := shard.Split(p)
	var sh, other shard.Shard
	for _, s := range shards {
		if len(s.Candidates) > len(sh.Candidates) && len(s.Tuples) >= 2 {
			sh = s
		}
	}
	for _, s := range shards {
		if len(s.Candidates) > 0 && len(s.Tuples) > 0 && s.Candidates[0] != sh.Candidates[0] {
			other = s
			break
		}
	}
	if sh.Problem == nil || other.Problem == nil {
		t.Fatal("scenario has no two non-trivial shards")
	}
	parentLive := p.JIndex().NumLive()
	tuples := append([]data.Tuple(nil), sh.Problem.JIndex().Tuples...)
	before := snapshotShard(sh)
	foreign := p.JIndex().Tuples[other.Tuples[0]]

	if _, err := sh.Problem.AppendTarget([]data.Tuple{foreign}); err == nil {
		t.Fatal("AppendTarget on a shard view succeeded")
	}
	for name, f := range map[string]*core.Problem{"Fork": sh.Problem.Fork(), "ForkDetached": sh.Problem.ForkDetached()} {
		if f.J == nil || f.J.Len() != len(tuples) {
			t.Fatalf("%s: target holds %v tuples, want %d", name, f.J, len(tuples))
		}
		if !bench.EvidenceIdentical(f, coldOver(sh.Problem, tuples)) {
			t.Fatalf("%s: evidence differs from a cold Prepare over the shard's tuples", name)
		}
		if _, err := f.AppendTarget([]data.Tuple{foreign}); err != nil {
			t.Fatalf("%s: append: %v", name, err)
		}
		if !bench.EvidenceIdentical(f, coldOver(sh.Problem, append(append([]data.Tuple(nil), tuples...), foreign))) {
			t.Fatalf("%s: evidence differs from a cold Prepare after append", name)
		}
	}
	if !reflect.DeepEqual(snapshotShard(sh), before) {
		t.Fatal("forking and appending to the forks changed the shard")
	}
	if sh.Problem.J != nil {
		t.Fatal("forking built the view's own target")
	}
	if got := p.JIndex().NumLive(); got != parentLive {
		t.Fatalf("shard forks changed the parent target: %d -> %d live tuples", parentLive, got)
	}
}

// TestSplitAllocsScaleWithShards: a split allocates per shard and per
// candidate, not per tuple — quadrupling the rows of every primitive
// (same 70 components and candidates) adds only the logarithmic growth
// of each shard's tuple list.
func TestSplitAllocsScaleWithShards(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares a 45k-tuple scenario")
	}
	allocs := func(rows int) (float64, int) {
		cfg := ibench.DefaultConfig(70, 70)
		cfg.Rows = rows
		p := scenarioProblem(t, cfg)
		p.Prepare()
		return testing.AllocsPerRun(3, func() { shard.SplitN(p, 1) }), p.JIndex().Len()
	}
	small, nSmall := allocs(100)
	large, nLarge := allocs(400)
	ratio := large / small
	t.Logf("SplitN allocs: %.0f at %d tuples, %.0f at %d tuples (×%.2f for ×%.2f tuples)",
		small, nSmall, large, nLarge, ratio, float64(nLarge)/float64(nSmall))
	if ratio > 1.5 {
		t.Fatalf("SplitN allocations grew ×%.2f for ×%.2f tuples; want ≤ ×1.5", ratio, float64(nLarge)/float64(nSmall))
	}
}

// panicOn arms the test-panicky solver: it panics on any problem whose
// first candidate is this tgd, and otherwise solves like greedy.
var panicOn atomic.Pointer[tgd.TGD]

type panickySolver struct{}

func (panickySolver) Name() string { return "test-panicky" }

func (panickySolver) Solve(ctx context.Context, p *core.Problem, opts ...core.SolveOption) (*core.Selection, error) {
	if m := panicOn.Load(); m != nil && p.NumCandidates() > 0 && p.Candidates[0] == m {
		panic("injected shard failure")
	}
	return core.GreedySolver{}.Solve(ctx, p, opts...)
}

func init() {
	core.Register("test-panicky", func() core.Solver { return panickySolver{} })
}

// TestShardPanicContained: a panic inside one shard's solve becomes an
// error naming the shard, the other shards are cancelled, the process
// survives, and later solves on the same problem — cold and warm —
// succeed.
func TestShardPanicContained(t *testing.T) {
	p := scenarioProblem(t, noisyConfig(14, 12, 5))
	p.PrepareStreaming(2)
	shards := shard.Split(p)
	target := len(shards) / 2
	for len(shards[target].Candidates) == 0 {
		target--
	}
	solver := shard.Solver{Inner: "test-panicky", TinyCap: -1}
	ref, err := shard.Solver{Inner: "greedy", TinyCap: -1}.Solve(context.Background(), p)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}

	warm, err := solver.Solve(context.Background(), p, core.WithWarmStart(ref))
	if err != nil {
		t.Fatalf("warm solve before arming: %v", err)
	}
	panicOn.Store(p.Candidates[shards[target].Candidates[0]])
	for _, par := range []int{1, 2} {
		for _, opts := range [][]core.SolveOption{nil, {core.WithWarmStart(warm)}} {
			opts = append(opts, core.WithParallelism(par))
			_, err := solver.Solve(context.Background(), p, opts...)
			want := fmt.Sprintf("shard %d (%d candidates): panic: injected shard failure", target, len(shards[target].Candidates))
			if err == nil || !strings.Contains(err.Error(), want) {
				panicOn.Store(nil)
				t.Fatalf("parallelism %d: got error %v, want %q", par, err, want)
			}
		}
	}
	panicOn.Store(nil)

	for _, opts := range [][]core.SolveOption{nil, {core.WithWarmStart(warm)}} {
		sel, err := solver.Solve(context.Background(), p, append(opts, core.WithParallelism(2))...)
		if err != nil {
			t.Fatalf("solve after contained panic: %v", err)
		}
		if !reflect.DeepEqual(sel.Chosen, ref.Chosen) || sel.Objective != ref.Objective {
			t.Fatal("solve after contained panic diverged from the reference")
		}
	}
}
