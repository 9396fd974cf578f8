// Package schemamap is a collective, probabilistic schema-mapping
// toolkit: a Go reproduction of Kimmig, Memory, Miller and Getoor,
// "A Collective, Probabilistic Approach to Schema Mapping" (ICDE
// 2017).
//
// Given a source instance I, a target data example J, and a set C of
// candidate source-to-target tgds (e.g. generated Clio-style from
// attribute correspondences), the toolkit selects the subset M ⊆ C
// minimising the paper's Eq. (9) objective — unexplained target data,
// plus erroneous exchanged tuples, plus mapping size — using MAP
// inference in a hinge-loss Markov random field (a PSL program),
// alongside exact, greedy and per-candidate baselines.
//
// This root package re-exports the public API; the implementation
// lives in the internal packages:
//
//	internal/schema   relational schemas, correspondences
//	internal/data     instances, tuples, labelled nulls, homomorphisms
//	internal/tgd      st tgds, canonical forms, text DSL
//	internal/chase    the naive chase (canonical universal solutions)
//	internal/cover    the Eq. (9) covers/creates measures
//	internal/psl      the hinge-loss MRF and its consensus-ADMM MAP inference
//	internal/core     the selection objective and the four solvers
//	internal/clio     Clio-style candidate generation
//	internal/ibench   iBench-style scenario generation with noise
//	internal/metrics  mapping- and tuple-level precision/recall/F1
//	internal/shard    connected-component sharding for L/XL scale
//
// A minimal end-to-end run:
//
//	sc, _ := schemamap.GenerateScenario(schemamap.DefaultScenarioConfig(7, 42))
//	p := schemamap.NewProblem(sc.I, sc.J, sc.Candidates)
//	sel, _ := schemamap.Collective().Solve(context.Background(), p)
//	fmt.Println(p.SelectedMapping(sel.Chosen))
//
// Solvers are context-aware and can be resolved by name from the
// registry, with per-call options for serving workloads:
//
//	solver, _ := schemamap.GetSolver("collective") // see SolverNames()
//	sel, err := solver.Solve(ctx, p,
//	    schemamap.WithBudget(200*time.Millisecond),
//	    schemamap.WithProgress(func(e schemamap.SolveEvent) { log.Println(e.Phase, e.Iteration) }),
//	    schemamap.WithParallelism(4))
//
// Cancelling ctx stops any solver promptly with ctx.Err() (during
// the once-per-Problem Prepare phase, at the first checkpoint after
// it); an expired WithBudget instead yields the best selection found
// so far, flagged Selection.Truncated. A prepared Problem is safe to
// share across concurrent Solve calls.
//
// For live targets that grow tuple-by-tuple, Problem.AppendTarget
// applies a delta to the prepared evidence instead of invalidating it,
// and WithWarmStart(prev) re-solves from the previous selection:
//
//	delta, _ := p.AppendTarget(newTuples)
//	sel, err = solver.Solve(ctx, p, schemamap.WithWarmStart(sel))
//
// Mutating a Problem's instances directly after Prepare is detected
// and rejected (stale evidence); AppendTarget is the supported path.
package schemamap

import (
	"context"
	"time"

	"schemamap/internal/chase"
	"schemamap/internal/clio"
	"schemamap/internal/core"
	"schemamap/internal/cover"
	"schemamap/internal/data"
	"schemamap/internal/ibench"
	"schemamap/internal/match"
	"schemamap/internal/metrics"
	"schemamap/internal/query"
	"schemamap/internal/schema"
	"schemamap/internal/shard"
	"schemamap/internal/tgd"
)

// Re-exported core types. See the internal packages for full
// documentation of each.
type (
	// Schema is a relational schema (relations, keys, foreign keys).
	Schema = schema.Schema
	// Relation is one relation symbol with named attributes.
	Relation = schema.Relation
	// ForeignKey links columns of two relations.
	ForeignKey = schema.ForeignKey
	// Correspondence links a source attribute to a target attribute.
	Correspondence = schema.Correspondence
	// Correspondences is a set of attribute correspondences.
	Correspondences = schema.Correspondences

	// Instance is a set of tuples over a schema.
	Instance = data.Instance
	// Tuple is one fact.
	Tuple = data.Tuple
	// Value is a constant or labelled null.
	Value = data.Value

	// TGD is one source-to-target tuple-generating dependency.
	TGD = tgd.TGD
	// Mapping is an ordered set of tgds.
	Mapping = tgd.Mapping

	// Problem is a mapping-selection instance (Eq. (9) objective).
	Problem = core.Problem
	// Weights are the objective weights (w₁, w₂, w₃).
	Weights = core.Weights
	// Breakdown splits an objective value into its three parts.
	Breakdown = core.Breakdown
	// Selection is a solver result.
	Selection = core.Selection
	// Solver is a mapping-selection algorithm (context-aware).
	Solver = core.Solver
	// SolveOption customises one Solve call (WithBudget, WithProgress,
	// WithParallelism, WithSeed).
	SolveOption = core.SolveOption
	// SolveEvent is one progress report from a running solver.
	SolveEvent = core.Event

	// TargetDelta reports what one lifecycle mutation (AppendTarget,
	// RemoveTarget, ApplySourceDelta) changed.
	TargetDelta = core.TargetDelta
	// SourceDelta is a batch mutation of the source instance for
	// Problem.ApplySourceDelta.
	SourceDelta = core.SourceDelta

	// Scenario is a generated benchmark scenario.
	Scenario = ibench.Scenario
	// ScenarioConfig controls scenario generation.
	ScenarioConfig = ibench.Config
	// Primitive is one iBench mapping primitive.
	Primitive = ibench.Primitive
	// StreamConfig controls the streaming split of a scenario target.
	StreamConfig = ibench.StreamConfig
	// TargetStream is a scenario target split for streaming ingestion.
	TargetStream = ibench.TargetStream

	// PRF is a precision/recall/F1 triple.
	PRF = metrics.PRF

	// ClioOptions tune candidate generation.
	ClioOptions = clio.Options

	// MatchOptions tune the schema matcher.
	MatchOptions = match.Options
	// ScoredCorrespondence is a matcher proposal with its score.
	ScoredCorrespondence = match.Scored

	// CQ is a conjunctive query over an instance.
	CQ = query.CQ
	// UCQ is a union of conjunctive queries.
	UCQ = query.UCQ
	// Answer is one query result tuple.
	Answer = query.Answer

	// LearnExample is a training problem for weight learning.
	LearnExample = core.LearnExample
	// LearnSelectionOptions configure weight learning.
	LearnSelectionOptions = core.LearnSelectionOptions

	// ExplanationReport is the provenance of a selection.
	ExplanationReport = cover.Report
	// Witness explains one target tuple.
	Witness = cover.Witness

	// Shard is one connected component of a problem's evidence graph,
	// materialised as an independently solvable sub-Problem.
	Shard = shard.Shard
	// ShardStats summarises a decomposition (shard count, largest
	// component, uncovered tuples).
	ShardStats = shard.Stats
)

// iBench primitives.
const (
	CP  = ibench.CP
	ADD = ibench.ADD
	DL  = ibench.DL
	ADL = ibench.ADL
	ME  = ibench.ME
	VP  = ibench.VP
	VNM = ibench.VNM
)

// NewSchema returns an empty schema.
func NewSchema(name string) *Schema { return schema.New(name) }

// NewRelation builds a relation.
func NewRelation(name string, attrs ...string) *Relation {
	return schema.NewRelation(name, attrs...)
}

// NewInstance returns an empty instance.
func NewInstance() *Instance { return data.NewInstance() }

// NewTuple builds a tuple of constants.
func NewTuple(rel string, consts ...string) Tuple { return data.NewTuple(rel, consts...) }

// ParseTGD parses one tgd from its DSL form, e.g.
// "proj(p,e,c) -> task(p,e,O) & org(O,c)".
func ParseTGD(src string) (*TGD, error) { return tgd.Parse(src) }

// MustParseTGD is ParseTGD but panics on error.
func MustParseTGD(src string) *TGD { return tgd.MustParse(src) }

// NewProblem builds a selection problem with default weights.
func NewProblem(I, J *Instance, candidates Mapping) *Problem {
	return core.NewProblem(I, J, candidates)
}

// Collective returns the paper's solver: HL-MRF relaxation via PSL +
// ADMM, rounding, and local repair.
func Collective() Solver { return core.CollectiveSolver{} }

// Greedy returns the forward-selection baseline.
func Greedy() Solver { return core.GreedySolver{} }

// Independent returns the per-candidate (non-collective) baseline.
func Independent() Solver { return core.IndependentSolver{} }

// Exhaustive returns the exact branch-and-bound solver (small C only).
func Exhaustive() Solver { return core.ExhaustiveSolver{} }

// GetSolver resolves a solver by registry name ("collective",
// "greedy", "independent", "exhaustive", or anything added via
// RegisterSolver); unknown names yield an error listing the
// options.
func GetSolver(name string) (Solver, error) { return core.Get(name) }

// SolverNames lists the registered solver names, sorted.
func SolverNames() []string { return core.Names() }

// RegisterSolver adds a custom solver factory to the registry.
func RegisterSolver(name string, factory func() Solver) { core.Register(name, factory) }

// WithBudget sets a soft compute budget on a Solve call: when it
// elapses the solver returns its best selection so far, flagged
// Truncated. Use a context deadline for a hard stop.
func WithBudget(d time.Duration) SolveOption { return core.WithBudget(d) }

// WithProgress registers a progress-event callback on a Solve call.
func WithProgress(fn func(SolveEvent)) SolveOption { return core.WithProgress(fn) }

// WithParallelism bounds the worker pools of a Solve call (the
// Prepare pool and the sharded solvers' shard pool); n ≤ 0 means
// GOMAXPROCS. It changes speed, never results.
func WithParallelism(n int) SolveOption { return core.WithParallelism(n) }

// WithSeed seeds randomised tie-breaking on a Solve call.
func WithSeed(seed int64) SolveOption { return core.WithSeed(seed) }

// WithWarmStart seeds a Solve call from a prior selection — the
// streaming re-solve path after Problem.AppendTarget. Greedy starts
// its passes from the prior selection; collective starts ADMM at the
// prior relaxation.
func WithWarmStart(prev *Selection) SolveOption { return core.WithWarmStart(prev) }

// SplitTarget deals a scenario's target into an initial instance plus
// append batches for streaming ingestion (Problem.AppendTarget).
func SplitTarget(sc *Scenario, cfg StreamConfig) (*TargetStream, error) {
	return ibench.SplitTarget(sc, cfg)
}

// SplitProblem decomposes a problem into the connected components of
// its evidence graph (candidates linked to the tuples they cover).
// The Eq. (9) objective is block-separable over these components, so
// each shard can be solved independently and the union of per-shard
// selections has exactly the objective of a whole-problem solve.
// Uncovered tuples land in one final candidate-free shard.
func SplitProblem(p *Problem) []Shard { return shard.Split(p) }

// ShardStatsOf summarises a decomposition produced by SplitProblem.
func ShardStatsOf(shards []Shard) ShardStats { return shard.StatsOf(shards) }

// ShardedSolver wraps a registered solver so that it solves each
// connected evidence component independently on a bounded worker pool
// (see WithParallelism) and merges the per-shard selections. Tiny
// components are solved exactly regardless of the inner solver. The
// registry also carries the wrapped variants under the names
// "sharded-greedy" and "sharded-collective".
func ShardedSolver(inner string) (Solver, error) { return shard.Wrap(inner) }

// GenerateCandidates produces Clio-style candidate tgds from schemas
// and correspondences.
func GenerateCandidates(src, tgt *Schema, corrs Correspondences, opts ClioOptions) (Mapping, error) {
	return clio.Generate(src, tgt, corrs, opts)
}

// DefaultClioOptions returns the candidate-generation defaults.
func DefaultClioOptions() ClioOptions { return clio.DefaultOptions() }

// DefaultScenarioConfig returns the paper-flavoured scenario defaults
// (all seven primitives, add/delete range (2,4), no noise).
func DefaultScenarioConfig(n int, seed int64) ScenarioConfig {
	return ibench.DefaultConfig(n, seed)
}

// GenerateScenario builds an iBench-style scenario.
func GenerateScenario(cfg ScenarioConfig) (*Scenario, error) { return ibench.Generate(cfg) }

// MappingPRF scores a selected mapping against a gold mapping at the
// tgd level.
func MappingPRF(selected, gold Mapping) PRF { return metrics.MappingPRF(selected, gold) }

// TuplePRF scores the data exchanged by a selected mapping against the
// gold mapping's output.
func TuplePRF(I *Instance, selected, gold Mapping) PRF {
	return metrics.TuplePRF(I, selected, gold)
}

// MatchSchemas proposes attribute correspondences between two schemas
// from name similarity and (optional) instance-value overlap.
func MatchSchemas(src, tgt *Schema, I, J *Instance, opts MatchOptions) []ScoredCorrespondence {
	return match.Match(src, tgt, I, J, opts)
}

// DefaultMatchOptions returns the matcher defaults.
func DefaultMatchOptions() MatchOptions { return match.DefaultOptions() }

// ToCorrespondences strips matcher scores.
func ToCorrespondences(scored []ScoredCorrespondence) Correspondences {
	return match.ToCorrespondences(scored)
}

// Exchange materialises the canonical universal solution chase(I, M):
// the target instance the mapping produces, with labelled nulls for
// existential values.
func Exchange(I *Instance, m Mapping) *Instance {
	return chase.Chase(I, m, nil).Instance
}

// ExchangeCore materialises the core of the exchanged instance — the
// smallest universal solution (redundant null blocks retracted).
func ExchangeCore(I *Instance, m Mapping) *Instance {
	return chase.Chase(I, m, nil).Core()
}

// ParseQuery parses a conjunctive query, e.g.
// "q(e, c) :- task(p, e, o), org(o, c)".
func ParseQuery(src string) (*CQ, error) { return query.Parse(src) }

// MustParseQuery is ParseQuery but panics on error.
func MustParseQuery(src string) *CQ { return query.MustParse(src) }

// CertainAnswers computes the certain answers of q over the exchange
// of I by m (naive evaluation over the universal solution, null-free
// answers only).
func CertainAnswers(q *CQ, I *Instance, m Mapping) []Answer {
	return query.CertainAnswers(q, I, m)
}

// ExplainSelection computes the provenance report of a selection:
// per-tuple witnesses, unexplained residue, and erroneous chase
// tuples per selected candidate.
func ExplainSelection(I, J *Instance, candidates Mapping, selected []bool) *ExplanationReport {
	return cover.Explain(I, J, candidates, selected, cover.DefaultOptions())
}

// ParseUCQ parses a union of conjunctive queries separated by ';'.
func ParseUCQ(src string) (*UCQ, error) { return query.ParseUCQ(src) }

// CertainAnswersUCQ computes certain answers of a union of CQs over
// the exchange of I by m.
func CertainAnswersUCQ(u *UCQ, I *Instance, m Mapping) []Answer {
	return query.CertainAnswersUCQ(u, I, m)
}

// Implies reports whether one st tgd logically implies another
// (chase-based test).
func Implies(sigma, tau *TGD) bool { return chase.Implies(sigma, tau) }

// MinimizeMapping removes tgds logically implied by other members,
// returning an equivalent, smaller mapping.
func MinimizeMapping(m Mapping) Mapping { return chase.MinimizeMapping(m) }

// LearnWeights learns the objective weights (w₁, w₂, w₃) from
// training problems with known gold selections (structured
// perceptron; see internal/core). Cancelling ctx aborts learning.
func LearnWeights(ctx context.Context, examples []LearnExample, opts LearnSelectionOptions) (Weights, error) {
	return core.LearnSelectionWeights(ctx, examples, opts)
}

// DefaultLearnOptions returns the weight-learning defaults.
func DefaultLearnOptions() LearnSelectionOptions {
	return core.DefaultLearnSelectionOptions()
}
