package cover

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"schemamap/internal/data"
	"schemamap/internal/ibench"
	"schemamap/internal/tgd"
)

// BuildTracker must produce exactly the analyses AnalyzeN produces:
// the tracker merges each candidate's row from memo-shared block rows,
// the cold path folds every match straight into it, and a maximum does
// not depend on the grouping. Tight hom limits truncate each block's
// enumeration, so they check that both paths enumerate every block
// alike; the sharded scenario's inert runs, collapsed under
// corroboration only, check the truncation inside a counted run.
func TestTrackerAnalysesMatchAnalyzeN(t *testing.T) {
	link := ibench.DefaultConfig(70, 70)
	link.Rows = 20
	scenarios := []*ibench.Scenario{shardedScenario(t)}
	for _, cfg := range append(scenarioConfigs(), link) {
		sc, err := ibench.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, sc)
	}
	var opts []Options
	for _, limit := range []int{1, 2, 3, 5, 7, 0} {
		opts = append(opts, Options{Corroboration: true, HomLimit: limit}, Options{Corroboration: false, HomLimit: limit})
	}
	for si, sc := range scenarios {
		jidx := IndexJ(sc.J)
		for _, o := range opts {
			_, got := BuildTracker(sc.I, IndexJ(sc.J), sc.Candidates, o)
			for _, workers := range []int{1, 2} {
				if want := AnalyzeN(sc.I, jidx, sc.Candidates, o, workers); !reflect.DeepEqual(got, want) {
					t.Errorf("scenario %d, opts %+v: tracked analyses diverge from AnalyzeN on %d workers", si, o, workers)
				}
			}
		}
	}
}

// splitTuples deals the tuples of J into an initial instance plus n
// append batches, in a seeded shuffled order (streaming arrival).
func splitTuples(J *data.Instance, n int, rng *rand.Rand) (*data.Instance, [][]data.Tuple) {
	all := J.All()
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	k := len(all) / 2
	initial := data.NewInstance()
	for _, t := range all[:k] {
		initial.Add(t)
	}
	rest := all[k:]
	batches := make([][]data.Tuple, 0, n)
	for b := 0; b < n; b++ {
		lo, hi := b*len(rest)/n, (b+1)*len(rest)/n
		batches = append(batches, rest[lo:hi])
	}
	return initial, batches
}

// remapPairs translates an Analysis's pair ids from one JIndex to
// another (the same tuples, possibly in a different order), re-sorted.
func remapPairs(an Analysis, from, to *JIndex) Analysis {
	out := an
	out.Pairs = make([]CoverPair, len(an.Pairs))
	for k, pr := range an.Pairs {
		j := to.IndexOf(from.Tuples[pr.J])
		if j < 0 {
			panic("remapPairs: tuple missing from target index")
		}
		out.Pairs[k] = CoverPair{J: int32(j), Cov: pr.Cov}
	}
	pairs := out.Pairs
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j].J < pairs[j-1].J; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	return out
}

// instanceOfTuples builds an instance from a tuple list.
func instanceOfTuples(ts []data.Tuple) *data.Instance {
	in := data.NewInstance()
	for _, t := range ts {
		in.Add(t)
	}
	return in
}

// assertTrackedMatchesCold compares incremental analyses (over jidx)
// against a cold AnalyzeN of the same target tuples, up to the tuple-
// id permutation induced by arrival order.
func assertTrackedMatchesCold(t *testing.T, label string, I *data.Instance, jidx *JIndex, cands tgd.Mapping, opts Options, got []Analysis) {
	t.Helper()
	coldJidx := IndexJ(instanceOfTuples(jidx.Tuples))
	want := AnalyzeN(I, coldJidx, cands, opts, 1)
	if len(got) != len(want) {
		t.Fatalf("%s: %d analyses vs cold %d", label, len(got), len(want))
	}
	for i := range got {
		g := remapPairs(got[i], jidx, coldJidx)
		if !reflect.DeepEqual(g, want[i]) {
			t.Errorf("%s candidate %d:\n incr (remapped) %+v\n cold            %+v", label, i, g, want[i])
		}
	}
}

// N incremental appends must yield evidence identical to one cold
// analysis of the final target — checked after every batch, on the
// harness's seeded scenarios.
func TestTrackerAppendMatchesColdOnScenarios(t *testing.T) {
	for ci, cfg := range scenarioConfigs() {
		sc, err := ibench.Generate(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		rng := rand.New(rand.NewSource(int64(ci) + 101))
		initial, batches := splitTuples(sc.J, 4, rng)
		jidx := IndexJ(initial)
		tracker, analyses := BuildTracker(sc.I, jidx, sc.Candidates, DefaultOptions())
		for bi, batch := range batches {
			before := snapshotCoverage(analyses)
			delta := tracker.Append(batch, analyses)
			if delta.OldTuples+len(batch) != delta.NewTuples || delta.NewTuples != jidx.Len() {
				t.Fatalf("config %d batch %d: delta range %d..%d, index has %d",
					ci, bi, delta.OldTuples, delta.NewTuples, jidx.Len())
			}
			assertTrackedMatchesCold(t, "scenario", sc.I, jidx, sc.Candidates, DefaultOptions(), analyses)
			assertChangedTuplesSound(t, before, analyses, delta)
		}
	}
}

// assertTrackerBlocks checks the tracker's one record of its blocks:
// the memo holds exactly the blocks some candidate references, each
// under its canonical key, with a reference count equal to its
// occurrences across the candidates' block lists; every error and
// embedded chase tuple points at a memo block its own candidate
// references; no mutation left a dirty or changed mark set; and the
// index holds memo blocks only, each once per list, has no empty
// entry, and lists each memo block under exactly the distinct slots of
// its tuples.
func assertTrackerBlocks(t *testing.T, tr *Tracker) {
	t.Helper()
	memo := make(map[*trackedBlock]bool, len(tr.memo))
	//lint:commutative only records membership
	for k, tb := range tr.memo {
		if k != tb.key {
			t.Errorf("memo holds block %q under key %q", tb.key, k)
		}
		memo[tb] = true
	}
	refs := make(map[*trackedBlock]int, len(memo))
	for i, blocks := range tr.candBlocks {
		own := make(map[*trackedBlock]bool, len(blocks))
		for _, tb := range blocks {
			if !memo[tb] {
				t.Errorf("candidate %d references block %q outside the memo", i, tb.key)
			}
			refs[tb]++
			own[tb] = true
		}
		for _, cts := range [][]chaseTuple{tr.errTuples[i], tr.okTuples[i]} {
			for _, ct := range cts {
				if !memo[ct.blk] || !own[ct.blk] {
					t.Errorf("candidate %d: chase tuple %v points at block %q, in the memo %v, referenced by the candidate %v",
						i, ct.Tuple, ct.blk.key, memo[ct.blk], own[ct.blk])
				}
			}
		}
	}
	listed := make(map[*trackedBlock][]string, len(memo))
	list := func(slot string, blocks []*trackedBlock) {
		seen := make(map[*trackedBlock]bool, len(blocks))
		for _, tb := range blocks {
			if !memo[tb] {
				t.Errorf("slot %s lists block %q outside the memo", slot, tb.key)
			}
			if seen[tb] {
				t.Errorf("slot %s lists block %q twice", slot, tb.key)
			}
			seen[tb] = true
			listed[tb] = append(listed[tb], slot)
		}
	}
	//lint:commutative only collects each block's slots, sorted before use
	for rel, slots := range tr.byRel {
		//lint:commutative as above
		for s, blocks := range slots {
			if len(blocks) == 0 {
				t.Errorf("slot %s is empty", slotName(rel, s.pos, s.text))
			}
			list(slotName(rel, s.pos, s.text), blocks)
		}
	}
	//lint:commutative independent per-block checks
	for tb := range memo {
		if refs[tb] == 0 {
			t.Errorf("memo retains block %q no candidate references", tb.key)
		}
		if tb.refs != refs[tb] {
			t.Errorf("block %q: %d references counted, %d in the block lists", tb.key, tb.refs, refs[tb])
		}
		var want []string
		for _, bt := range tb.tuples {
			p := slices.IndexFunc(bt.Args, func(a data.Value) bool { return !a.IsNull() })
			c := ""
			if p >= 0 {
				c = bt.Args[p].Name()
			}
			if s := slotName(bt.Rel, p, c); !slices.Contains(want, s) {
				want = append(want, s)
			}
		}
		slices.Sort(want)
		got := listed[tb]
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("block %q listed under slots %v, want %v", tb.key, got, want)
		}
		if tb.dirty || tb.changed != rowKept {
			t.Errorf("block %q left marked (dirty %v, changed %d)", tb.key, tb.dirty, tb.changed)
		}
	}
}

// slotName renders an index slot: a relation's constant-free slot
// (p < 0), or its slot for constant c at position p.
func slotName(rel string, p int, c string) string {
	if p < 0 {
		return rel + "/wild"
	}
	return fmt.Sprintf("%s/%d=%q", rel, p, c)
}

// indexSize counts the tracker index's slot entries and its listings
// (each block once per slot listing it).
func indexSize(tr *Tracker) (entries, listings int) {
	//lint:commutative sums
	for _, slots := range tr.byRel {
		entries += len(slots)
		//lint:commutative sums
		for _, blocks := range slots {
			listings += len(blocks)
		}
	}
	return entries, listings
}

// snapshotCoverage copies every candidate's sparse row.
func snapshotCoverage(analyses []Analysis) [][]CoverPair {
	out := make([][]CoverPair, len(analyses))
	for i := range analyses {
		out[i] = append([]CoverPair(nil), analyses[i].Pairs...)
	}
	return out
}

// assertChangedTuplesSound verifies the delta report: any pre-existing
// tuple whose coverage changed for any candidate (gained, moved or
// lost a pair) must be listed in ChangedTuples or RemovedTuples, and
// candidates with changed rows in PairsChanged.
func assertChangedTuplesSound(t *testing.T, before [][]CoverPair, analyses []Analysis, delta *TrackerDelta) {
	t.Helper()
	reported := make(map[int32]bool, len(delta.ChangedTuples)+len(delta.RemovedTuples))
	for _, j := range delta.ChangedTuples {
		reported[j] = true
	}
	for _, j := range delta.RemovedTuples {
		reported[j] = true
	}
	pairsChanged := make(map[int32]bool, len(delta.PairsChanged))
	for _, i := range delta.PairsChanged {
		pairsChanged[i] = true
	}
	for i := range analyses {
		old := Analysis{Pairs: before[i]}
		cur := &analyses[i]
		if !slices.Equal(before[i], cur.Pairs) && !pairsChanged[int32(i)] {
			t.Errorf("candidate %d row changed but not reported in PairsChanged", i)
		}
		check := func(j int32) {
			if int(j) >= delta.OldTuples || reported[j] {
				return
			}
			if was, now := old.CoversOf(int(j)), cur.CoversOf(int(j)); was != now {
				t.Errorf("candidate %d tuple %d: coverage %v→%v unreported", i, j, was, now)
			}
		}
		for _, pr := range cur.Pairs {
			check(pr.J)
		}
		for _, pr := range before[i] {
			check(pr.J)
		}
	}
}

// errorCounts copies every candidate's error count.
func errorCounts(analyses []Analysis) []float64 {
	out := make([]float64, len(analyses))
	for i := range analyses {
		out[i] = analyses[i].Errors
	}
	return out
}

// assertErrorsChangedSound verifies that every candidate whose error
// count moved is listed in ErrorsChanged.
func assertErrorsChangedSound(t *testing.T, before []float64, analyses []Analysis, delta *TrackerDelta) {
	t.Helper()
	listed := make(map[int32]bool, len(delta.ErrorsChanged))
	for _, i := range delta.ErrorsChanged {
		listed[i] = true
	}
	for i := range analyses {
		if analyses[i].Errors != before[i] && !listed[int32(i)] {
			t.Errorf("candidate %d: errors %v→%v not reported in ErrorsChanged", i, before[i], analyses[i].Errors)
		}
	}
}

// Target removals and source deltas must report every tuple whose
// coverage they changed and every candidate whose row or error count
// they changed: the retained grounding and the incidence refresh
// update only what the delta lists.
func TestTrackerRemoveAndSourceDeltaReportChanges(t *testing.T) {
	for ci, cfg := range scenarioConfigs() {
		sc, err := ibench.Generate(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		rng := rand.New(rand.NewSource(int64(ci) + 211))
		I := sc.I.Clone()
		jidx := IndexJ(sc.J.Clone())
		tracker, analyses := BuildTracker(I, jidx, sc.Candidates, DefaultOptions())
		assertTrackerBlocks(t, tracker)
		check := func(label string, apply func() *TrackerDelta) {
			t.Helper()
			before, errs := snapshotCoverage(analyses), errorCounts(analyses)
			delta := apply()
			assertChangedTuplesSound(t, before, analyses, delta)
			assertErrorsChangedSound(t, errs, analyses, delta)
			assertTrackerBlocks(t, tracker)
			if t.Failed() {
				t.Fatalf("config %d: %s: unsound delta %+v", ci, label, delta)
			}
		}
		for step := 0; step < 3; step++ {
			check("remove", func() *TrackerDelta {
				var removed []data.Tuple
				var ids []int32
				for _, j := range rng.Perm(jidx.Len()) {
					if jidx.Live(j) && len(ids) < 4 {
						removed = append(removed, jidx.Tuples[j])
						ids = append(ids, int32(j))
					}
				}
				return tracker.Remove(removed, ids, analyses)
			})
			src := I.All()
			picked := []data.Tuple{src[rng.Intn(len(src))], src[rng.Intn(len(src))]}
			changed := map[string]bool{}
			for _, tp := range picked {
				changed[tp.Rel] = true
			}
			check("source remove", func() *TrackerDelta {
				for _, tp := range picked {
					I.Remove(tp)
				}
				return tracker.ApplySourceDelta(I, changed, sc.Candidates, analyses)
			})
			check("source re-add", func() *TrackerDelta {
				for _, tp := range picked {
					I.Add(tp)
				}
				return tracker.ApplySourceDelta(I, changed, sc.Candidates, analyses)
			})
		}
	}
}

// Blocks a source delta brings in must take part in later appends:
// after source tuples are removed and re-added (their candidates
// re-chased into fresh blocks), each append must still match a cold
// analysis.
func TestTrackerAppendAfterSourceDelta(t *testing.T) {
	for ci, cfg := range scenarioConfigs() {
		sc, err := ibench.Generate(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		rng := rand.New(rand.NewSource(int64(ci) + 307))
		I := sc.I.Clone()
		initial, batches := splitTuples(sc.J, 2, rng)
		jidx := IndexJ(initial)
		tracker, analyses := BuildTracker(I, jidx, sc.Candidates, DefaultOptions())
		assertTrackerBlocks(t, tracker)
		src := I.All()
		picked := []data.Tuple{src[rng.Intn(len(src))], src[rng.Intn(len(src))]}
		changed := map[string]bool{}
		for _, tp := range picked {
			changed[tp.Rel] = true
			I.Remove(tp)
		}
		tracker.ApplySourceDelta(I, changed, sc.Candidates, analyses)
		assertTrackerBlocks(t, tracker)
		tracker.Append(batches[0], analyses)
		assertTrackerBlocks(t, tracker)
		assertTrackedMatchesCold(t, "after source removal", I, jidx, sc.Candidates, DefaultOptions(), analyses)
		for _, tp := range picked {
			I.Add(tp)
		}
		tracker.ApplySourceDelta(I, changed, sc.Candidates, analyses)
		assertTrackerBlocks(t, tracker)
		tracker.Append(batches[1], analyses)
		assertTrackerBlocks(t, tracker)
		assertTrackedMatchesCold(t, "after source re-add", I, jidx, sc.Candidates, DefaultOptions(), analyses)
	}
}

// Candidates added to and retired from a tracked M scenario, with
// appends in between, must leave the analyses of a cold AnalyzeN over
// the current candidate set, and the memo exactly the blocks the
// surviving candidates reference. Retired candidates come back later,
// so re-added blocks meet the ones still retained.
func TestTrackerCandidateChurn(t *testing.T) {
	sc, err := ibench.Generate(scenarioConfigs()[1])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(401))
	initial, batches := splitTuples(sc.J, 3, rng)
	jidx := IndexJ(initial)
	half := len(sc.Candidates) / 2
	cands := slices.Clone(sc.Candidates[:half])
	pending := slices.Clone(sc.Candidates[half:])
	tracker, analyses := BuildTracker(sc.I, jidx, cands, DefaultOptions())
	check := func(label string, step int) {
		t.Helper()
		assertTrackerBlocks(t, tracker)
		assertTrackedMatchesCold(t, label, sc.I, jidx, cands, DefaultOptions(), analyses)
		if t.Failed() {
			t.Fatalf("step %d: %s diverged", step, label)
		}
	}
	check("build", -1)
	for step := 0; step < 8; step++ {
		k := min(len(pending), 1+rng.Intn(12))
		added := pending[:k]
		pending = pending[k:]
		analyses = append(analyses, tracker.AddCandidates(sc.I, added)...)
		cands = append(cands, added...)
		check("add", step)

		keep := make([]bool, len(cands))
		for i := range keep {
			keep[i] = rng.Intn(4) != 0
		}
		tracker.RemoveCandidates(keep)
		var keptCands tgd.Mapping
		var keptAn []Analysis
		for i, k := range keep {
			if k {
				an := analyses[i]
				an.TGDIndex = len(keptAn)
				keptAn = append(keptAn, an)
				keptCands = append(keptCands, cands[i])
			} else {
				pending = append(pending, cands[i])
			}
		}
		cands, analyses = keptCands, keptAn
		check("retire", step)

		if step < len(batches) {
			tracker.Append(batches[step], analyses)
			check("append", step)
		}
	}
}

// Source deltas that each swap a source tuple for one with a fresh
// constant, all then undone, must leave the tracker as it was built:
// the memo and the index back at their build sizes — a block's last
// reference frees its memo entry and its listings, and a constant's
// entry with its last block — and the analyses of a cold AnalyzeN.
func TestTrackerSourceSwapsFreeTheirBlocks(t *testing.T) {
	sc, err := ibench.Generate(scenarioConfigs()[1])
	if err != nil {
		t.Fatal(err)
	}
	I := sc.I.Clone()
	jidx := IndexJ(sc.J)
	opts := DefaultOptions()
	tr, analyses := BuildTracker(I, jidx, sc.Candidates, opts)
	blocks := len(tr.memo)
	entries, listings := indexSize(tr)
	swapIn := func(out, in data.Tuple) {
		I.Remove(out)
		I.Add(in)
		tr.ApplySourceDelta(I, map[string]bool{out.Rel: true}, sc.Candidates, analyses)
	}
	rng := rand.New(rand.NewSource(601))
	var swapped [][2]data.Tuple
	grown := false
	for k := 0; k < 200; k++ {
		src := I.All()
		old := src[rng.Intn(len(src))]
		fresh := data.Tuple{Rel: old.Rel, Args: slices.Clone(old.Args)}
		fresh.Args[rng.Intn(len(fresh.Args))] = data.Const(fmt.Sprint("fresh", k))
		swapIn(old, fresh)
		swapped = append(swapped, [2]data.Tuple{old, fresh})
		if e, _ := indexSize(tr); e > entries {
			grown = true
		}
	}
	if !grown {
		t.Fatal("no swap listed a block under a fresh constant: nothing to free")
	}
	assertTrackerBlocks(t, tr)
	for k := len(swapped) - 1; k >= 0; k-- {
		swapIn(swapped[k][1], swapped[k][0])
	}
	assertTrackerBlocks(t, tr)
	if e, l := indexSize(tr); len(tr.memo) != blocks || e != entries || l != listings {
		t.Errorf("undone: %d blocks, %d index entries, %d listings; built with %d, %d, %d",
			len(tr.memo), e, l, blocks, entries, listings)
	}
	if want := AnalyzeN(I, jidx, sc.Candidates, opts, 1); !reflect.DeepEqual(analyses, want) {
		t.Error("undone: analyses diverge from AnalyzeN")
	}
}

// A chain of mutations keeps the tracker's evidence and blocks sound.
// The same tracker takes an append, a removal, a source delta, a
// candidate addition and a retirement, and after the build and every
// step its analyses must equal a cold AnalyzeN of the current state
// and its blocks pass assertTrackerBlocks.
func TestTrackerMutationChainMatchesAnalyzeN(t *testing.T) {
	m, err := ibench.Generate(scenarioConfigs()[1])
	if err != nil {
		t.Fatal(err)
	}
	for si, sc := range []*ibench.Scenario{shardedScenario(t), m} {
		rng := rand.New(rand.NewSource(int64(si) + 503))
		I := sc.I.Clone()
		initial, batches := splitTuples(sc.J, 1, rng)
		split := len(sc.Candidates) * 3 / 4
		cands := slices.Clone(sc.Candidates[:split])
		opts := DefaultOptions()
		jidx := IndexJ(initial)
		tr, analyses := BuildTracker(I, jidx, cands, opts)
		check := func(label string) {
			t.Helper()
			if want := AnalyzeN(I, jidx, cands, opts, 1); !reflect.DeepEqual(analyses, want) {
				t.Errorf("scenario %d, %s: tracker diverges from AnalyzeN", si, label)
			}
			assertTrackerBlocks(t, tr)
			if t.Failed() {
				t.FailNow()
			}
		}
		check("build")

		tr.Append(batches[0], analyses)
		check("append")

		var removed []data.Tuple
		var ids []int32
		for _, j := range rng.Perm(jidx.Len())[:8] {
			if jidx.Live(j) {
				removed = append(removed, jidx.Tuples[j])
				ids = append(ids, int32(j))
			}
		}
		tr.Remove(removed, ids, analyses)
		check("remove")

		src := I.All()
		changed := map[string]bool{}
		for k := 0; k < 3; k++ {
			tp := src[rng.Intn(len(src))]
			changed[tp.Rel] = true
			I.Remove(tp)
		}
		tr.ApplySourceDelta(I, changed, cands, analyses)
		check("source delta")

		added := sc.Candidates[split:]
		analyses = append(analyses, tr.AddCandidates(I, added)...)
		cands = append(cands, added...)
		check("add candidates")

		keep := make([]bool, len(cands))
		for i := range keep {
			keep[i] = rng.Intn(4) != 0
		}
		var keptCands tgd.Mapping
		var kept []Analysis
		for i, k := range keep {
			if k {
				keptCands = append(keptCands, cands[i])
				an := analyses[i]
				an.TGDIndex = len(kept)
				kept = append(kept, an)
			}
		}
		tr.RemoveCandidates(keep)
		cands, analyses = keptCands, kept
		check("retire candidates")
	}
}

// Random small scenarios, random split sizes, both corroboration
// settings — the shapes the ibench generator does not produce. Every
// fourth trial caps the enumeration at 1–6 matches, so appends both
// merge the matches reaching new tuples into complete blocks and push
// blocks over the cap, which must then be enumerated afresh.
func TestTrackerAppendRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 80; trial++ {
		I, J, cands := randomScenario(rng)
		opts := DefaultOptions()
		if trial%3 == 2 {
			opts.Corroboration = false
		}
		if trial%4 == 1 {
			opts.HomLimit = 1 + rng.Intn(6)
		}
		nb := 1 + rng.Intn(4)
		initial, batches := splitTuples(J, nb, rng)
		jidx := IndexJ(initial)
		tracker, analyses := BuildTracker(I, jidx, cands, opts)
		for _, batch := range batches {
			tracker.Append(batch, analyses)
		}
		assertTrackedMatchesCold(t, "random", I, jidx, cands, opts, analyses)
	}
}

// An empty delta is a no-op and reports nothing.
func TestTrackerAppendEmpty(t *testing.T) {
	sc, err := ibench.Generate(scenarioConfigs()[0])
	if err != nil {
		t.Fatal(err)
	}
	jidx := IndexJ(sc.J)
	tracker, analyses := BuildTracker(sc.I, jidx, sc.Candidates, DefaultOptions())
	before := snapshotCoverage(analyses)
	delta := tracker.Append(nil, analyses)
	if len(delta.ChangedTuples) != 0 || len(delta.PairsChanged) != 0 || len(delta.ErrorsChanged) != 0 {
		t.Fatalf("empty append reported changes: %+v", delta)
	}
	for i := range analyses {
		if !slices.Equal(before[i], analyses[i].Pairs) {
			t.Fatalf("empty append mutated candidate %d", i)
		}
	}
}

// The indexed Append must also agree with a from-scratch rebuild of
// the posting-list index over the same tuple order.
func TestJIndexAppendMatchesRebuild(t *testing.T) {
	sc, err := ibench.Generate(scenarioConfigs()[0])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	initial, batches := splitTuples(sc.J, 3, rng)
	jidx := IndexJ(initial)
	for _, b := range batches {
		jidx.Append(b)
	}
	if jidx.Len() != sc.J.Len() {
		t.Fatalf("appended index has %d tuples, want %d", jidx.Len(), sc.J.Len())
	}
	for i, tp := range jidx.Tuples {
		if jidx.IndexOf(tp) != i {
			t.Fatalf("IndexOf of appended tuple %d broken", i)
		}
		if !jidx.idx.Tuples()[i].Equal(tp) {
			t.Fatalf("index id %d does not resolve to its tuple", i)
		}
	}
	// Candidate sets must match a rebuilt index probe for probe (as
	// tuple sets — ids depend on insertion order).
	rebuilt := data.IndexTuples(instanceOfTuples(jidx.Tuples).All())
	asKeys := func(ix *data.Index, ids []int32) []string {
		keys := make([]string, len(ids))
		for k, id := range ids {
			keys[k] = ix.Tuples()[id].Key()
		}
		sort.Strings(keys)
		return keys
	}
	for _, tp := range jidx.Tuples {
		got := asKeys(jidx.idx, jidx.idx.Candidates(tp))
		want := asKeys(rebuilt, rebuilt.Candidates(tp))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("candidate set of %v: appended %v, rebuilt %v", tp, got, want)
		}
	}
}

// BenchmarkBuildTrackerSharded is BenchmarkAnalyzeNSharded's analysis
// through the streaming build: the same ≈11k-tuple target, with every
// distinct block retained in the tracker's memo.
func BenchmarkBuildTrackerSharded(b *testing.B) {
	sc := shardedScenario(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildTracker(sc.I, IndexJ(sc.J), sc.Candidates, DefaultOptions())
	}
}

// BenchmarkTrackerAppend replays the M stream trace's appends: the M
// scenario's target dealt into an initial half, tracked by
// BuildTracker (untimed), and 8 append batches in shuffled arrival
// order (the stream trace's seed), applied as
// core.Problem.AppendTarget applies them.
func BenchmarkTrackerAppend(b *testing.B) {
	sc, err := ibench.Generate(scenarioConfigs()[1])
	if err != nil {
		b.Fatal(err)
	}
	stream, err := ibench.SplitTarget(sc, ibench.StreamConfig{Batches: 8, Seed: 29})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr, analyses := BuildTracker(sc.I, IndexJ(stream.Initial), sc.Candidates, DefaultOptions())
		runtime.GC() // the build's garbage is not the appends' cost
		b.StartTimer()
		for _, batch := range stream.Batches {
			tr.Append(batch, analyses)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N*len(stream.Batches)), "ms/append")
}

// BenchmarkTrackerSourceDelta times the chasing mutation of a tracked
// problem: one op removes 3 source tuples and applies the delta, then
// re-adds them and applies it again, on the sharded scenario and on M.
// The tracker is built once (untimed); each op leaves it as it was.
func BenchmarkTrackerSourceDelta(b *testing.B) {
	m, err := ibench.Generate(scenarioConfigs()[1])
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		sc   *ibench.Scenario
	}{{"sharded", shardedScenario(b)}, {"M", m}} {
		b.Run(bc.name, func(b *testing.B) {
			sc := bc.sc
			I := sc.I.Clone()
			tr, analyses := BuildTracker(I, IndexJ(sc.J), sc.Candidates, DefaultOptions())
			src := I.All()
			rng := rand.New(rand.NewSource(43))
			picked := []data.Tuple{src[rng.Intn(len(src))], src[rng.Intn(len(src))], src[rng.Intn(len(src))]}
			changed := map[string]bool{}
			for _, tp := range picked {
				changed[tp.Rel] = true
			}
			runtime.GC() // the build's garbage is not the deltas' cost
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, tp := range picked {
					I.Remove(tp)
				}
				tr.ApplySourceDelta(I, changed, sc.Candidates, analyses)
				for _, tp := range picked {
					I.Add(tp)
				}
				tr.ApplySourceDelta(I, changed, sc.Candidates, analyses)
			}
		})
	}
}
