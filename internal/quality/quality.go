// Package quality is the repo's mapping-quality evaluation harness:
// the counterpart of internal/bench that measures *accuracy* instead
// of speed. It sweeps a matrix of ibench scenario cells — per
// primitive family (CP, ADD, DL, ADL, ME, VP, VNM) and the mixed
// seven-primitive workload, at S/M scales, across the standard noise
// levels of the paper's Table I — runs every registered solver on
// each cell through the core Solve API, and scores each selection
// with precision/recall/F1 against the cell's gold mapping at both
// the mapping level (selected tgds vs M_G up to logical equality) and
// the tuple level (data exchanged by the selection vs by M_G).
//
// cmd/qualityrun is the CLI front end; CI runs the full matrix on
// every PR and gates on the checked-in baseline (baseline.go), which
// makes silent accuracy regressions — a solver tweak that keeps the
// objective but drops the gold mapping — a failing check instead of a
// surprise at paper-comparison time.
//
// Runs are deterministic: cells pin their seeds, solvers run without
// wall-clock budgets (a budget truncation point depends on machine
// speed), and solvers that cannot finish a cell deterministically
// (exhaustive search above its candidate cap) are recorded as skipped
// rather than truncated.
package quality

import (
	"context"
	"fmt"
	"runtime"

	"schemamap/internal/core"
	"schemamap/internal/ibench"
	"schemamap/internal/metrics"
)

// Mixed names the all-seven-primitives family in cell names and
// reports.
const Mixed = "mixed"

// Cell is one matrix cell: a fully determined scenario configuration.
// Equal cells generate equal scenarios.
type Cell struct {
	// Name is "<family>-<scale>-<noise>", e.g. "CP-S-mid".
	Name string `json:"name"`
	// Family is a primitive name or Mixed.
	Family string `json:"family"`
	// Scale is "S" or "M".
	Scale string `json:"scale"`
	// Noise is the cell's point on the Table I axes.
	Noise ibench.NoiseLevel `json:"noise"`
	// N is the number of primitive instances; Rows the tuples per
	// source relation.
	N    int `json:"n"`
	Rows int `json:"rows"`
	// Seed drives all scenario randomness.
	Seed int64 `json:"seed"`
}

// Config builds the cell's ibench configuration.
func (c Cell) Config() (ibench.Config, error) {
	var cfg ibench.Config
	if c.Family == Mixed {
		cfg = ibench.DefaultConfig(c.N, c.Seed)
	} else {
		p, err := ibench.ParsePrimitive(c.Family)
		if err != nil {
			return ibench.Config{}, err
		}
		cfg = ibench.SingleFamilyConfig(p, c.N, c.Seed)
	}
	cfg.Rows = c.Rows
	return cfg.WithNoise(c.Noise), nil
}

// cell builds a matrix cell with its deterministic seed. famIdx is
// the primitive's index (7 for mixed) and scaleIdx 0 for S, 1 for M;
// the seed formula is position-independent so adding cells to the
// matrix never reseeds existing ones (which would invalidate the
// checked-in baseline).
func cell(family, scale string, famIdx, scaleIdx, levelIdx int, level ibench.NoiseLevel, n, rows int) Cell {
	return Cell{
		Name:   fmt.Sprintf("%s-%s-%s", family, scale, level.Name),
		Family: family,
		Scale:  scale,
		Noise:  level,
		N:      n,
		Rows:   rows,
		Seed:   int64(1000 + 100*famIdx + 10*levelIdx + scaleIdx),
	}
}

// Matrix returns the standard quality grid:
//
//   - each of the seven primitive families alone, at the S scale
//     (N=4, Rows=8), under the none/mid/high noise levels — 21 cells
//     attributing accuracy to one ambiguity pattern at a time;
//   - the mixed seven-primitive workload at the S scale (N=7,
//     Rows=10) under all four noise levels — 4 cells matching the
//     bench harness's S scenario shape;
//   - the mixed workload at the M scale (N=14, Rows=16) under the mid
//     level — 1 cell catching regressions that only appear once
//     candidate sets are large enough to interact.
//
// 26 cells total. The matrix is append-only: cells may be added, but
// renaming or reseeding existing ones invalidates the checked-in
// baseline.
func Matrix() []Cell {
	levels := ibench.StandardNoiseLevels()
	var cells []Cell
	for fi, p := range ibench.AllPrimitives {
		// Single-family cells skip the "low" level (1); the seed formula
		// uses the level's StandardNoiseLevels index, so it could join
		// later without reseeding these.
		for _, li := range []int{0, 2, 3} {
			cells = append(cells, cell(p.String(), "S", fi, 0, li, levels[li], 4, 8))
		}
	}
	for li, level := range levels {
		cells = append(cells, cell(Mixed, "S", len(ibench.AllPrimitives), 0, li, level, 7, 10))
	}
	cells = append(cells, cell(Mixed, "M", len(ibench.AllPrimitives), 1, 2, levels[2], 14, 16))
	return cells
}

// CellsNamed filters the standard matrix by name; an empty list
// returns the full matrix.
func CellsNamed(names ...string) ([]Cell, error) {
	all := Matrix()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]Cell, len(all))
	for _, c := range all {
		byName[c.Name] = c
	}
	out := make([]Cell, 0, len(names))
	for _, n := range names {
		c, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("quality: unknown cell %q", n)
		}
		out = append(out, c)
	}
	return out, nil
}

// CellResult is one (solver, cell) quality measurement.
type CellResult struct {
	Solver string `json:"solver"`
	Cell   string `json:"cell"`
	Family string `json:"family"`
	Scale  string `json:"scale"`
	// Noise echoes the cell's noise level.
	Noise ibench.NoiseLevel `json:"noise"`
	Seed  int64             `json:"seed"`
	// Scenario size.
	Candidates int `json:"candidates"`
	GoldTGDs   int `json:"goldTGDs"`
	JTuples    int `json:"jTuples"`
	// Selected is the number of candidates the solver picked.
	Selected int `json:"selected"`
	// Mapping-level precision/recall/F1: selected tgds vs the gold
	// mapping, up to logical equality.
	MappingPrecision float64 `json:"mappingPrecision"`
	MappingRecall    float64 `json:"mappingRecall"`
	MappingF1        float64 `json:"mappingF1"`
	// Tuple-level precision/recall/F1: data exchanged by the selected
	// mapping vs by the gold mapping, up to null renaming.
	TuplePrecision float64 `json:"tuplePrecision"`
	TupleRecall    float64 `json:"tupleRecall"`
	TupleF1        float64 `json:"tupleF1"`
	// Objective context: F at the selection and at the gold mapping.
	Objective     float64 `json:"objective"`
	GoldObjective float64 `json:"goldObjective"`
	Iterations    int     `json:"iterations"`
	// Skipped carries the reason a solver did not run this cell
	// (e.g. the exhaustive solver's deterministic candidate cap); all
	// measurements are zero then.
	Skipped string `json:"skipped,omitempty"`
}

// Report is the content of one QUALITY_<solver>.json file.
type Report struct {
	Solver    string       `json:"solver"`
	GoVersion string       `json:"goVersion"`
	Cells     []CellResult `json:"cells"`
}

// ExhaustiveCellCap bounds the candidate count the quality and bench
// harnesses hand to exhaustive search. The solver's own cap (128) only
// bounds its bitset width; branch-and-bound beyond ~two dozen
// candidates can take minutes, and truncating it with a wall-clock
// budget would make the recorded F1 and objective machine-dependent.
// Cells and traces above the cap record a skip instead.
const ExhaustiveCellCap = 24

// Options configure a harness run.
type Options struct {
	// Cells to run (nil = the full standard Matrix).
	Cells []Cell
	// Solvers to run (nil = every registered solver, core.Names()).
	Solvers []string
	// Parallelism is passed to every solve via WithParallelism
	// (0 = GOMAXPROCS); results are independent of it.
	Parallelism int
	// Progress, when non-nil, receives one line per measurement.
	Progress func(string)
}

// Run executes the harness and returns one report per solver, in
// solver order. The scenario and prepared problem of each cell are
// shared across solvers (preparation is solver-independent), so a run
// costs one generation + preparation per cell plus one solve per
// (solver, cell).
func Run(ctx context.Context, opt Options) ([]*Report, error) {
	cells := opt.Cells
	if len(cells) == 0 {
		cells = Matrix()
	}
	solvers := opt.Solvers
	if len(solvers) == 0 {
		solvers = core.Names()
	}
	reports := make(map[string]*Report, len(solvers))
	var order []*Report
	for _, name := range solvers {
		if _, err := core.Get(name); err != nil {
			return nil, err
		}
		r := &Report{Solver: name, GoVersion: runtime.Version(), Cells: []CellResult{}}
		reports[name] = r
		order = append(order, r)
	}

	for _, c := range cells {
		cfg, err := c.Config()
		if err != nil {
			return nil, fmt.Errorf("quality: cell %s: %w", c.Name, err)
		}
		sc, err := ibench.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("quality: cell %s: %w", c.Name, err)
		}
		p := core.NewProblem(sc.I, sc.J, sc.Candidates)
		p.PrepareN(opt.Parallelism)
		goldObjective := p.Objective(sc.GoldSelection()).Total()

		for _, name := range solvers {
			res := CellResult{
				Solver: name, Cell: c.Name, Family: c.Family, Scale: c.Scale,
				Noise: c.Noise, Seed: c.Seed,
				Candidates: len(sc.Candidates), GoldTGDs: len(sc.Gold), JTuples: sc.J.Len(),
			}
			if name == "exhaustive" && len(sc.Candidates) > ExhaustiveCellCap {
				res.Skipped = fmt.Sprintf("candidate count %d exceeds deterministic cap %d", len(sc.Candidates), ExhaustiveCellCap)
			} else if err := scoreCell(ctx, name, p, sc, goldObjective, opt.Parallelism, &res); err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				// A solver declining a cell (e.g. the exhaustive
				// solver's own candidate cap) is data, not a harness
				// failure.
				res.Skipped = err.Error()
			}
			reports[name].Cells = append(reports[name].Cells, res)
			if opt.Progress != nil {
				line := fmt.Sprintf("%-14s %-12s |C|=%3d sel=%3d mapF1=%.3f tupF1=%.3f F=%.4g (gold %.4g)",
					c.Name, name, res.Candidates, res.Selected,
					res.MappingF1, res.TupleF1, res.Objective, res.GoldObjective)
				if res.Skipped != "" {
					line = fmt.Sprintf("%-14s %-12s skipped: %s", c.Name, name, res.Skipped)
				}
				opt.Progress(line)
			}
		}
	}
	return order, nil
}

// scoreCell solves one cell with one solver and fills in the quality
// measurements.
func scoreCell(ctx context.Context, name string, p *core.Problem, sc *ibench.Scenario, goldObjective float64, parallelism int, res *CellResult) error {
	solver, err := core.Get(name)
	if err != nil {
		return err
	}
	sel, err := solver.Solve(ctx, p, core.WithParallelism(parallelism))
	if err != nil {
		return err
	}
	selected := p.SelectedMapping(sel.Chosen)
	m := metrics.MappingPRF(selected, sc.Gold)
	t := metrics.TuplePRF(sc.I, selected, sc.Gold)
	res.Selected = sel.Count()
	res.MappingPrecision, res.MappingRecall, res.MappingF1 = m.Precision, m.Recall, m.F1()
	res.TuplePrecision, res.TupleRecall, res.TupleF1 = t.Precision, t.Recall, t.F1()
	res.Objective = sel.Objective.Total()
	res.GoldObjective = goldObjective
	res.Iterations = sel.Iterations
	return nil
}
