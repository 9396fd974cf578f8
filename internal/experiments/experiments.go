// Package experiments regenerates the paper's evaluation artifacts:
// one function per table/figure (README's "Experiments" section lists
// them), each returning a Table that cmd/experiments renders. Scenario
// scales are configurable so the same code backs both the full runs
// and the quick CI-sized runs used by the benchmarks.
package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"schemamap/internal/core"
	"schemamap/internal/data"
	"schemamap/internal/ibench"
	"schemamap/internal/metrics"
	"schemamap/internal/tgd"
)

// Table is one rendered experiment result.
type Table struct {
	ID      string
	Caption string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render returns an aligned plain-text rendering.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Caption)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown returns a GitHub-flavoured markdown rendering.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Caption)
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(seps, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(r, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// Options scale the experiment suite.
type Options struct {
	// Quick shrinks scenario sizes and trial counts for CI/benchmarks.
	Quick bool
	// Seeds is the number of random trials averaged per configuration
	// (0 → 3, or 1 when Quick).
	Seeds int
	// BaseSeed offsets all scenario seeds.
	BaseSeed int64
}

func (o Options) seeds() int {
	if o.Seeds > 0 {
		return o.Seeds
	}
	if o.Quick {
		return 1
	}
	return 3
}

// solverSet returns the solver lineup compared throughout the
// evaluation, resolved by name from the core registry.
func solverSet() []core.Solver {
	names := []string{"independent", "greedy", "collective"}
	out := make([]core.Solver, len(names))
	for i, n := range names {
		out[i] = core.MustGet(n)
	}
	return out
}

// trial holds per-solver aggregates across seeds.
type agg struct {
	mapF1, tupF1, objective, seconds float64
	selected                         float64
	n                                int
}

func (a *agg) add(mapF1, tupF1, obj float64, d time.Duration, count int) {
	a.mapF1 += mapF1
	a.tupF1 += tupF1
	a.objective += obj
	a.seconds += d.Seconds()
	a.selected += float64(count)
	a.n++
}

func (a *agg) avg() (mapF1, tupF1, obj, secs, sel float64) {
	if a.n == 0 {
		return 0, 0, 0, 0, 0
	}
	n := float64(a.n)
	return a.mapF1 / n, a.tupF1 / n, a.objective / n, a.seconds / n, a.selected / n
}

// runSolvers evaluates every solver on the scenario and records
// mapping-level F1, tuple-level F1, objective and runtime.
func runSolvers(ctx context.Context, sc *ibench.Scenario, solvers []core.Solver, aggs map[string]*agg) error {
	p := core.NewProblem(sc.I, sc.J, sc.Candidates)
	p.Prepare()
	for _, s := range solvers {
		sel, err := s.Solve(ctx, p)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name(), err)
		}
		chosen := p.SelectedMapping(sel.Chosen)
		mp := metrics.MappingPRF(chosen, sc.Gold)
		tp := metrics.TuplePRF(sc.I, chosen, sc.Gold)
		a, ok := aggs[s.Name()]
		if !ok {
			a = &agg{}
			aggs[s.Name()] = a
		}
		a.add(mp.F1(), tp.F1(), sel.Objective.Total(), sel.Runtime, sel.Count())
	}
	return nil
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// EX0AppendixExample reproduces the appendix §I objective table for
// the running example, exactly.
func EX0AppendixExample(ctx context.Context) (*Table, error) {
	I := data.NewInstance()
	I.Add(data.NewTuple("proj", "BigData", "Bob", "IBM"))
	I.Add(data.NewTuple("proj", "ML", "Alice", "SAP"))
	J := data.NewInstance()
	J.Add(data.NewTuple("task", "ML", "Alice", "111"))
	J.Add(data.NewTuple("org", "111", "SAP"))
	J.Add(data.NewTuple("task", "Search", "Carol", "222"))
	J.Add(data.NewTuple("org", "222", "Google"))
	cands := tgd.Mapping{
		tgd.MustParse("proj(p,e,c) -> task(p,e,O)"),
		tgd.MustParse("proj(p,e,c) -> task(p,e,O) & org(O,c)"),
	}
	p := core.NewProblem(I, J, cands)
	t := &Table{
		ID:      "EX0",
		Caption: "Appendix §I: Eq.(9) objective for subsets of {θ1, θ3}",
		Columns: []string{"M", "Σ(1−explains)", "Σ error", "size", "Eq.(9)"},
		Notes: []string{
			"paper values: {}→4, {θ1}→7⅓, {θ3}→8, {θ1,θ3}→12",
		},
	}
	subsets := []struct {
		name string
		sel  []bool
	}{
		{"{}", []bool{false, false}},
		{"{θ1}", []bool{true, false}},
		{"{θ3}", []bool{false, true}},
		{"{θ1,θ3}", []bool{true, true}},
	}
	for _, s := range subsets {
		b := p.Objective(s.sel)
		t.AddRow(s.name,
			fmt.Sprintf("%.4g", b.Unexplained),
			fmt.Sprintf("%.4g", b.Errors),
			fmt.Sprintf("%.4g", b.Size),
			fmt.Sprintf("%.4g", b.Total()))
	}
	return t, nil
}

// EX2SetCover demonstrates the appendix §III NP-hardness reduction:
// mapping selection solves SET COVER instances exactly.
func EX2SetCover(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		ID:      "EX2",
		Caption: "Appendix §III: SET COVER ↔ mapping selection (full st tgds)",
		Columns: []string{"instance", "|U|", "sets", "min cover", "selected", "F(M)", "bound 2n", "answer"},
	}
	instances := []struct {
		name     string
		universe []string
		sets     [][]string
		n        int
		want     bool
	}{
		{"covers-2", []string{"u1", "u2", "u3", "u4", "u5"},
			[][]string{{"u1", "u2", "u3"}, {"u3", "u4"}, {"u4", "u5"}, {"u1", "u5"}}, 2, true},
		{"covers-3", []string{"u1", "u2", "u3", "u4", "u5", "u6"},
			[][]string{{"u1", "u2"}, {"u3", "u4"}, {"u5", "u6"}, {"u1", "u6"}}, 3, true},
		{"no-2-cover", []string{"u1", "u2", "u3", "u4", "u5", "u6"},
			[][]string{{"u1", "u2"}, {"u3", "u4"}, {"u5", "u6"}, {"u1", "u6"}}, 2, false},
	}
	for _, inst := range instances {
		p := setCoverProblem(inst.universe, inst.sets, 2*inst.n)
		sel, err := core.ExhaustiveSolver{}.Solve(ctx, p)
		if err != nil {
			return nil, err
		}
		got := sel.Objective.Total() <= float64(2*inst.n)+1e-9
		t.AddRow(inst.name,
			fmt.Sprintf("%d", len(inst.universe)),
			fmt.Sprintf("%d", len(inst.sets)),
			fmt.Sprintf("%d", inst.n),
			fmt.Sprintf("%d", sel.Count()),
			f1(sel.Objective.Total()),
			fmt.Sprintf("%d", 2*inst.n),
			fmt.Sprintf("%v (want %v)", got, inst.want))
		if got != inst.want {
			return nil, fmt.Errorf("EX2: reduction answer mismatch for %s", inst.name)
		}
	}
	return t, nil
}

// setCoverProblem builds the appendix reduction instance.
func setCoverProblem(universe []string, sets [][]string, m int) *core.Problem {
	I := data.NewInstance()
	J := data.NewInstance()
	D := make([]string, m+1)
	for i := range D {
		D[i] = fmt.Sprintf("d%d", i)
	}
	for _, x := range universe {
		for _, y := range D {
			J.Add(data.NewTuple("U", x, y))
		}
	}
	var cands tgd.Mapping
	for si, set := range sets {
		rel := fmt.Sprintf("R%d", si)
		for _, x := range set {
			for _, y := range D {
				I.Add(data.NewTuple(rel, x, y))
			}
		}
		cands = append(cands, tgd.MustParse(rel+"(x,y) -> U(x,y)"))
	}
	return core.NewProblem(I, J, cands)
}

// E1PrimitiveQuality compares solver quality per iBench primitive
// (Table-II-style): mapping-level and tuple-level F1 under mild
// correspondence noise.
func E1PrimitiveQuality(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Caption: "Quality per iBench primitive (piCorresp=25)",
		Columns: []string{"primitive", "solver", "map-F1", "tuple-F1", "|M|", "F"},
		Notes:   []string{"averaged over seeds; collective ≥ greedy ≥ independent expected"},
	}
	n := 4
	rows := 30
	if o.Quick {
		n, rows = 2, 20
	}
	for _, prim := range ibench.AllPrimitives {
		aggs := make(map[string]*agg)
		for s := 0; s < o.seeds(); s++ {
			cfg := ibench.DefaultConfig(n, o.BaseSeed+int64(100*int(prim)+s))
			cfg.Primitives = []ibench.Primitive{prim}
			cfg.Rows = rows
			cfg.PiCorresp = 25
			sc, err := ibench.Generate(cfg)
			if err != nil {
				return nil, err
			}
			if err := runSolvers(ctx, sc, solverSet(), aggs); err != nil {
				return nil, err
			}
		}
		for _, s := range solverSet() {
			mapF1, tupF1, obj, _, sel := aggs[s.Name()].avg()
			t.AddRow(prim.String(), s.Name(), f3(mapF1), f3(tupF1), f1(sel), f1(obj))
		}
	}
	return t, nil
}

// sweepMix orders the primitive mix join-first so that quick runs
// (which truncate the mix) still exercise the collective signal.
var sweepMix = []ibench.Primitive{
	ibench.VP, ibench.ME, ibench.VNM, ibench.CP,
	ibench.ADD, ibench.DL, ibench.ADL,
}

// noiseSweep is the shared implementation of E2–E4. Scenario seeds
// are independent of the noise level, so each sweep varies only the
// noise process.
func noiseSweep(ctx context.Context, id, caption, param string, o Options, levels []float64, apply func(*ibench.Config, float64)) (*Table, error) {
	t := &Table{
		ID:      id,
		Caption: caption,
		Columns: []string{param, "|C|", "solver", "map-F1", "tuple-F1", "|M|", "F"},
	}
	if o.Quick && len(levels) > 3 {
		levels = []float64{levels[0], levels[len(levels)/2], levels[len(levels)-1]}
	}
	n, rows := 7, 30
	if o.Quick {
		n, rows = 4, 20
	}
	for _, lvl := range levels {
		aggs := make(map[string]*agg)
		candSum := 0
		for s := 0; s < o.seeds(); s++ {
			cfg := ibench.DefaultConfig(n, o.BaseSeed+int64(7919*s))
			cfg.Primitives = append([]ibench.Primitive(nil), sweepMix...)
			cfg.Rows = rows
			apply(&cfg, lvl)
			sc, err := ibench.Generate(cfg)
			if err != nil {
				return nil, err
			}
			candSum += len(sc.Candidates)
			if err := runSolvers(ctx, sc, solverSet(), aggs); err != nil {
				return nil, err
			}
		}
		cAvg := fmt.Sprintf("%.0f", float64(candSum)/float64(o.seeds()))
		for _, s := range solverSet() {
			mapF1, tupF1, obj, _, sel := aggs[s.Name()].avg()
			t.AddRow(fmt.Sprintf("%.0f%%", lvl), cAvg, s.Name(), f3(mapF1), f3(tupF1), f1(sel), f1(obj))
		}
	}
	return t, nil
}

// E2CorrespSweep sweeps the random-correspondence noise piCorresp.
func E2CorrespSweep(ctx context.Context, o Options) (*Table, error) {
	return noiseSweep(ctx, "E2", "F1 vs piCorresp (random correspondences)", "piCorresp", o,
		[]float64{0, 25, 50, 75, 100},
		func(cfg *ibench.Config, lvl float64) { cfg.PiCorresp = lvl })
}

// E3ErrorsSweep sweeps the deleted-tuples noise piErrors.
func E3ErrorsSweep(ctx context.Context, o Options) (*Table, error) {
	return noiseSweep(ctx, "E3", "F1 vs piErrors (deleted non-certain error tuples)", "piErrors", o,
		[]float64{0, 5, 10, 20, 40},
		func(cfg *ibench.Config, lvl float64) { cfg.PiCorresp = 25; cfg.PiErrors = lvl })
}

// E4UnexplainedSweep sweeps the added-tuples noise piUnexplained.
func E4UnexplainedSweep(ctx context.Context, o Options) (*Table, error) {
	return noiseSweep(ctx, "E4", "F1 vs piUnexplained (added non-certain unexplained tuples)", "piUnexplained", o,
		[]float64{0, 10, 25, 50, 100},
		func(cfg *ibench.Config, lvl float64) { cfg.PiCorresp = 25; cfg.PiUnexplained = lvl })
}

// E5Scaling measures runtime versus scenario size; the exhaustive
// solver is run only while the candidate set stays tractable.
func E5Scaling(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Caption: "Runtime vs #primitive instances (seconds, averaged)",
		Columns: []string{"n", "|C|", "|J|", "independent", "greedy", "collective", "exhaustive"},
		Notes:   []string{"exhaustive (branch-and-bound) skipped when |C| > 28"},
	}
	sizes := []int{2, 4, 8, 16, 32, 64}
	if o.Quick {
		sizes = []int{2, 4, 8}
	}
	for _, n := range sizes {
		aggs := make(map[string]*agg)
		var candCount, jCount int
		exhaustiveRan := true
		for s := 0; s < o.seeds(); s++ {
			cfg := ibench.DefaultConfig(n, o.BaseSeed+int64(1000*n+s))
			cfg.Rows = 20
			cfg.PiCorresp = 25
			sc, err := ibench.Generate(cfg)
			if err != nil {
				return nil, err
			}
			candCount, jCount = len(sc.Candidates), sc.J.Len()
			solvers := solverSet()
			if len(sc.Candidates) <= 28 {
				solvers = append(solvers, core.ExhaustiveSolver{MaxCandidates: 28})
			} else {
				exhaustiveRan = false
			}
			if err := runSolvers(ctx, sc, solvers, aggs); err != nil {
				return nil, err
			}
		}
		cell := func(name string) string {
			a, ok := aggs[name]
			if !ok {
				return "-"
			}
			_, _, _, secs, _ := a.avg()
			return fmt.Sprintf("%.4f", secs)
		}
		ex := "-"
		if exhaustiveRan {
			ex = cell("exhaustive")
		}
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", candCount), fmt.Sprintf("%d", jCount),
			cell("independent"), cell("greedy"), cell("collective"), ex)
	}
	return t, nil
}

// E6ApproxQuality compares each solver's objective against the exact
// optimum on small, ambiguous scenarios.
func E6ApproxQuality(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Caption: "Objective vs exact optimum on small scenarios (piCorresp=100, piUnexplained=25)",
		Columns: []string{"solver", "mean F", "mean exact F", "mean gap %", "optima found"},
	}
	n := 3
	trials := 3 * o.seeds()
	type stat struct {
		obj, gap float64
		hits     int
		n        int
	}
	stats := make(map[string]*stat)
	var exactSum float64
	var exactN int
	for s := 0; s < trials; s++ {
		cfg := ibench.DefaultConfig(n, o.BaseSeed+int64(77*s))
		cfg.Primitives = append([]ibench.Primitive(nil), sweepMix...)
		cfg.Rows = 20
		cfg.PiCorresp = 100
		cfg.PiUnexplained = 25
		sc, err := ibench.Generate(cfg)
		if err != nil {
			return nil, err
		}
		// The branch-and-bound prunes aggressively, so a few dozen
		// candidates remain exact-solvable.
		if len(sc.Candidates) > 36 {
			continue
		}
		p := core.NewProblem(sc.I, sc.J, sc.Candidates)
		exact, err := core.ExhaustiveSolver{MaxCandidates: 36}.Solve(ctx, p)
		if err != nil {
			return nil, err
		}
		exactSum += exact.Objective.Total()
		exactN++
		for _, sv := range solverSet() {
			sel, err := sv.Solve(ctx, p)
			if err != nil {
				return nil, err
			}
			st, ok := stats[sv.Name()]
			if !ok {
				st = &stat{}
				stats[sv.Name()] = st
			}
			st.obj += sel.Objective.Total()
			ex := exact.Objective.Total()
			if ex > 0 {
				st.gap += 100 * (sel.Objective.Total() - ex) / ex
			}
			if sel.Objective.Total() <= ex+1e-9 {
				st.hits++
			}
			st.n++
		}
	}
	if exactN == 0 {
		return nil, fmt.Errorf("E6: all scenarios exceeded the exhaustive guard")
	}
	for _, sv := range solverSet() {
		st := stats[sv.Name()]
		t.AddRow(sv.Name(),
			f1(st.obj/float64(st.n)),
			f1(exactSum/float64(exactN)),
			fmt.Sprintf("%.2f", st.gap/float64(st.n)),
			fmt.Sprintf("%d/%d", st.hits, st.n))
	}
	return t, nil
}

// E7WeightAblation sweeps the objective weights (the appendix's
// weighted generalisation) and reports the collective solver's
// behaviour.
func E7WeightAblation(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Caption: "Weight ablation (collective solver, piCorresp=25, piErrors=20)",
		Columns: []string{"w1(explain)", "w2(error)", "w3(size)", "map-F1", "tuple-F1", "|M|"},
	}
	weights := []core.Weights{
		{Explain: 1, Error: 1, Size: 1},
		{Explain: 2, Error: 1, Size: 1},
		{Explain: 5, Error: 1, Size: 1},
		{Explain: 1, Error: 2, Size: 1},
		{Explain: 1, Error: 1, Size: 2},
		{Explain: 1, Error: 1, Size: 10},
		{Explain: 1, Error: 10, Size: 1},
		{Explain: 0.2, Error: 1, Size: 1},
	}
	n := 7
	if o.Quick {
		n = 4
	}
	for _, w := range weights {
		var mapF1, tupF1, selCount float64
		trials := 0
		for s := 0; s < o.seeds(); s++ {
			cfg := ibench.DefaultConfig(n, o.BaseSeed+int64(31*s))
			cfg.Primitives = append([]ibench.Primitive(nil), sweepMix...)
			cfg.Rows = 30
			cfg.PiCorresp = 25
			cfg.PiErrors = 20
			sc, err := ibench.Generate(cfg)
			if err != nil {
				return nil, err
			}
			p := core.NewProblem(sc.I, sc.J, sc.Candidates)
			p.Weights = w
			sel, err := core.CollectiveSolver{}.Solve(ctx, p)
			if err != nil {
				return nil, err
			}
			chosen := p.SelectedMapping(sel.Chosen)
			mapF1 += metrics.MappingPRF(chosen, sc.Gold).F1()
			tupF1 += metrics.TuplePRF(sc.I, chosen, sc.Gold).F1()
			selCount += float64(sel.Count())
			trials++
		}
		k := float64(trials)
		t.AddRow(fmt.Sprintf("%g", w.Explain), fmt.Sprintf("%g", w.Error), fmt.Sprintf("%g", w.Size),
			f3(mapF1/k), f3(tupF1/k), f1(selCount/k))
	}
	return t, nil
}

// E8CorroborationAblation disables the null-corroboration rule in the
// covers measure — the design choice that makes selection collective.
// Part 1 replays the appendix example (with the five extra ML-like
// projects): under the paper's semantics {θ3} is optimal; under naive
// covers, θ1's uncorroborated null counts as fully explaining each
// task tuple, so the cheaper {θ1} wins and the org tuples are lost.
// Part 2 measures the effect on noisy VP/VNM scenarios.
func E8CorroborationAblation(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Caption: "Corroboration ablation (collective solver)",
		Columns: []string{"setting", "covers semantics", "selected", "map-F1", "tuple-F1", "F"},
		Notes: []string{
			"appendix rows: gold is {θ3}; naive covers flips the optimum to the join-free θ1",
		},
	}

	// Part 1: appendix example + 5 extra project pairs.
	I := data.NewInstance()
	I.Add(data.NewTuple("proj", "BigData", "Bob", "IBM"))
	I.Add(data.NewTuple("proj", "ML", "Alice", "SAP"))
	J := data.NewInstance()
	J.Add(data.NewTuple("task", "ML", "Alice", "111"))
	J.Add(data.NewTuple("org", "111", "SAP"))
	J.Add(data.NewTuple("task", "Search", "Carol", "222"))
	J.Add(data.NewTuple("org", "222", "Google"))
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("X%d", i)
		I.Add(data.NewTuple("proj", name, "Alice", "SAP"))
		J.Add(data.NewTuple("task", name, "Alice", "111"))
	}
	cands := tgd.Mapping{
		tgd.MustParse("proj(p,e,c) -> task(p,e,O)"),
		tgd.MustParse("proj(p,e,c) -> task(p,e,O) & org(O,c)"),
	}
	gold := tgd.Mapping{cands[1]}
	for _, corr := range []bool{true, false} {
		p := core.NewProblem(I, J, cands)
		p.CoverOptions.Corroboration = corr
		sel, err := core.CollectiveSolver{}.Solve(ctx, p)
		if err != nil {
			return nil, err
		}
		chosen := p.SelectedMapping(sel.Chosen)
		names := "{}"
		if len(chosen) > 0 {
			var parts []string
			for i, on := range sel.Chosen {
				if on {
					parts = append(parts, fmt.Sprintf("θ%d", []int{1, 3}[i]))
				}
			}
			names = "{" + strings.Join(parts, ",") + "}"
		}
		t.AddRow("appendix+5", semanticsName(corr), names,
			f3(metrics.MappingPRF(chosen, gold).F1()),
			f3(metrics.TuplePRF(I, chosen, gold).F1()),
			f1(sel.Objective.Total()))
	}

	// Part 2: noisy VP/VNM scenarios.
	n := 6
	if o.Quick {
		n = 4
	}
	for _, corr := range []bool{true, false} {
		var mapF1, tupF1, selCount, obj float64
		trials := 0
		for s := 0; s < o.seeds(); s++ {
			cfg := ibench.DefaultConfig(n, o.BaseSeed+int64(13*s))
			cfg.Primitives = []ibench.Primitive{ibench.VP, ibench.VNM}
			cfg.Rows = 30
			cfg.PiCorresp = 75
			cfg.PiErrors = 15
			sc, err := ibench.Generate(cfg)
			if err != nil {
				return nil, err
			}
			p := core.NewProblem(sc.I, sc.J, sc.Candidates)
			p.CoverOptions.Corroboration = corr
			sel, err := core.CollectiveSolver{}.Solve(ctx, p)
			if err != nil {
				return nil, err
			}
			chosen := p.SelectedMapping(sel.Chosen)
			mapF1 += metrics.MappingPRF(chosen, sc.Gold).F1()
			tupF1 += metrics.TuplePRF(sc.I, chosen, sc.Gold).F1()
			selCount += float64(sel.Count())
			obj += sel.Objective.Total()
			trials++
		}
		k := float64(trials)
		t.AddRow("VP/VNM noisy", semanticsName(corr),
			f1(selCount/k), f3(mapF1/k), f3(tupF1/k), f1(obj/k))
	}
	return t, nil
}

func semanticsName(corr bool) string {
	if corr {
		return "corroborated (paper)"
	}
	return "naive (ablation)"
}

// E9WeightLearning evaluates the paper's "learn the weights" extension:
// under error noise the default weights under-select (cf. E7); weights
// learned from a few training scenarios with known gold selections
// should recover the lost F1 on held-out scenarios.
func E9WeightLearning(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Caption: "Learned objective weights under piErrors noise (train/test split)",
		Columns: []string{"weights", "w1", "w2", "w3", "test map-F1", "test tuple-F1"},
		Notes:   []string{"trained by structured perceptron on 2 scenarios with gold selections; tested on unseen seeds"},
	}
	n := 7
	if o.Quick {
		n = 4
	}
	mkProblem := func(seed int64) (*core.Problem, *ibench.Scenario, error) {
		cfg := ibench.DefaultConfig(n, seed)
		cfg.Primitives = append([]ibench.Primitive(nil), sweepMix...)
		cfg.Rows = 30
		cfg.PiCorresp = 25
		cfg.PiErrors = 25
		sc, err := ibench.Generate(cfg)
		if err != nil {
			return nil, nil, err
		}
		return core.NewProblem(sc.I, sc.J, sc.Candidates), sc, nil
	}

	// Train.
	var examples []core.LearnExample
	for s := 0; s < 2; s++ {
		p, sc, err := mkProblem(o.BaseSeed + int64(5000+s))
		if err != nil {
			return nil, err
		}
		examples = append(examples, core.LearnExample{Problem: p, Gold: sc.GoldSelection()})
	}
	learned, err := core.LearnSelectionWeights(ctx, examples, core.DefaultLearnSelectionOptions())
	if err != nil {
		return nil, err
	}

	// Test on unseen seeds.
	evaluate := func(w core.Weights) (mapF1, tupF1 float64, err error) {
		trials := 0
		for s := 0; s < o.seeds()+1; s++ {
			p, sc, err := mkProblem(o.BaseSeed + int64(6000+s))
			if err != nil {
				return 0, 0, err
			}
			p.Weights = w
			sel, err := core.CollectiveSolver{}.Solve(ctx, p)
			if err != nil {
				return 0, 0, err
			}
			chosen := p.SelectedMapping(sel.Chosen)
			mapF1 += metrics.MappingPRF(chosen, sc.Gold).F1()
			tupF1 += metrics.TuplePRF(sc.I, chosen, sc.Gold).F1()
			trials++
		}
		return mapF1 / float64(trials), tupF1 / float64(trials), nil
	}

	def := core.DefaultWeights()
	dm, dt, err := evaluate(def)
	if err != nil {
		return nil, err
	}
	lm, lt, err := evaluate(learned)
	if err != nil {
		return nil, err
	}
	t.AddRow("default", "1", "1", "1", f3(dm), f3(dt))
	t.AddRow("learned",
		fmt.Sprintf("%.2f", learned.Explain),
		fmt.Sprintf("%.2f", learned.Error),
		fmt.Sprintf("%.2f", learned.Size),
		f3(lm), f3(lt))
	return t, nil
}

// Result pairs an experiment with its output for the runner.
type Result struct {
	Table *Table
	Err   error
}

// experiment is one entry of the suite: an ID and the function that
// produces its table.
type experiment struct {
	id  string
	run func(context.Context, Options) (*Table, error)
}

// suite is the experiment table, in run order.
var suite = []experiment{
	{"EX0", func(ctx context.Context, _ Options) (*Table, error) { return EX0AppendixExample(ctx) }},
	{"EX2", EX2SetCover},
	{"E1", E1PrimitiveQuality},
	{"E2", E2CorrespSweep},
	{"E3", E3ErrorsSweep},
	{"E4", E4UnexplainedSweep},
	{"E5", E5Scaling},
	{"E6", E6ApproxQuality},
	{"E7", E7WeightAblation},
	{"E8", E8CorroborationAblation},
	{"E9", E9WeightLearning},
}

// Run runs the experiments with the given IDs, or the full suite when
// none are given, in suite order under ctx; a cancelled context fails
// the remaining experiments with ctx.Err(). An unknown ID is an error,
// and then nothing runs.
func Run(ctx context.Context, o Options, ids ...string) ([]Result, error) {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		if !slices.ContainsFunc(suite, func(e experiment) bool { return e.id == id }) {
			known := make([]string, len(suite))
			for i, e := range suite {
				known[i] = e.id
			}
			return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(known, ", "))
		}
		want[id] = true
	}
	var out []Result
	for _, e := range suite {
		if len(want) == 0 || want[e.id] {
			t, err := e.run(ctx, o)
			out = append(out, Result{Table: t, Err: err})
		}
	}
	return out, nil
}
