// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact; README's "Experiments"
// section lists them). Benchmarks use the quick experiment scale so
// the full suite stays CI-friendly; run cmd/experiments for the
// full-size tables.
package schemamap_test

import (
	"context"
	"testing"

	schemamap "schemamap"
	"schemamap/internal/core"
	"schemamap/internal/experiments"
	"schemamap/internal/ibench"
)

func quickOpts() experiments.Options {
	return experiments.Options{Quick: true, Seeds: 1, BaseSeed: 1}
}

func benchTable(b *testing.B, run func() error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendixExample regenerates EX0 (the appendix §I objective
// table).
func BenchmarkAppendixExample(b *testing.B) {
	benchTable(b, func() error {
		_, err := experiments.EX0AppendixExample(context.Background())
		return err
	})
}

// BenchmarkSetCoverReduction regenerates EX2 (the appendix §III
// NP-hardness reduction).
func BenchmarkSetCoverReduction(b *testing.B) {
	benchTable(b, func() error {
		_, err := experiments.EX2SetCover(context.Background(), quickOpts())
		return err
	})
}

// BenchmarkE1PrimitiveQuality regenerates E1 (per-primitive quality).
func BenchmarkE1PrimitiveQuality(b *testing.B) {
	benchTable(b, func() error {
		_, err := experiments.E1PrimitiveQuality(context.Background(), quickOpts())
		return err
	})
}

// BenchmarkE2CorrespSweep regenerates E2 (piCorresp sweep).
func BenchmarkE2CorrespSweep(b *testing.B) {
	benchTable(b, func() error {
		_, err := experiments.E2CorrespSweep(context.Background(), quickOpts())
		return err
	})
}

// BenchmarkE3ErrorsSweep regenerates E3 (piErrors sweep).
func BenchmarkE3ErrorsSweep(b *testing.B) {
	benchTable(b, func() error {
		_, err := experiments.E3ErrorsSweep(context.Background(), quickOpts())
		return err
	})
}

// BenchmarkE4UnexplainedSweep regenerates E4 (piUnexplained sweep).
func BenchmarkE4UnexplainedSweep(b *testing.B) {
	benchTable(b, func() error {
		_, err := experiments.E4UnexplainedSweep(context.Background(), quickOpts())
		return err
	})
}

// BenchmarkE5Scaling regenerates E5 (runtime vs scenario size).
func BenchmarkE5Scaling(b *testing.B) {
	benchTable(b, func() error {
		_, err := experiments.E5Scaling(context.Background(), quickOpts())
		return err
	})
}

// BenchmarkE6ApproxQuality regenerates E6 (gap to the exact optimum).
func BenchmarkE6ApproxQuality(b *testing.B) {
	benchTable(b, func() error {
		_, err := experiments.E6ApproxQuality(context.Background(), quickOpts())
		return err
	})
}

// BenchmarkE7WeightAblation regenerates E7 (objective-weight sweep).
func BenchmarkE7WeightAblation(b *testing.B) {
	benchTable(b, func() error {
		_, err := experiments.E7WeightAblation(context.Background(), quickOpts())
		return err
	})
}

// BenchmarkE8CorroborationAblation regenerates E8 (covers-semantics
// ablation).
func BenchmarkE8CorroborationAblation(b *testing.B) {
	benchTable(b, func() error {
		_, err := experiments.E8CorroborationAblation(context.Background(), quickOpts())
		return err
	})
}

// BenchmarkE9WeightLearning regenerates E9 (learned objective
// weights).
func BenchmarkE9WeightLearning(b *testing.B) {
	benchTable(b, func() error {
		_, err := experiments.E9WeightLearning(context.Background(), quickOpts())
		return err
	})
}

// Component micro-benchmarks: the moving parts a user pays for.

func benchScenario(b *testing.B, n int) *ibench.Scenario {
	b.Helper()
	cfg := ibench.DefaultConfig(n, 42)
	cfg.PiCorresp = 25
	sc, err := ibench.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// BenchmarkScenarioGeneration measures iBench scenario synthesis.
func BenchmarkScenarioGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := ibench.DefaultConfig(7, int64(i))
		cfg.PiCorresp = 25
		if _, err := ibench.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProblemPrepare measures the Eq. (9) evidence computation
// (chase + block homomorphism search for every candidate).
func BenchmarkProblemPrepare(b *testing.B) {
	sc := benchScenario(b, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.NewProblem(sc.I, sc.J, sc.Candidates)
		p.Prepare()
	}
}

// BenchmarkCollectiveSolve measures the paper's solver end to end
// (grounding + ADMM + rounding + repair) on a prepared problem.
func BenchmarkCollectiveSolve(b *testing.B) {
	sc := benchScenario(b, 7)
	p := core.NewProblem(sc.I, sc.J, sc.Candidates)
	p.Prepare()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (core.CollectiveSolver{}).Solve(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedySolve measures the greedy baseline on the same
// problem.
func BenchmarkGreedySolve(b *testing.B) {
	sc := benchScenario(b, 7)
	p := core.NewProblem(sc.I, sc.J, sc.Candidates)
	p.Prepare()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (core.GreedySolver{}).Solve(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPIEndToEnd exercises the facade: generate, solve,
// score.
func BenchmarkPublicAPIEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, err := schemamap.GenerateScenario(schemamap.DefaultScenarioConfig(4, int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		p := schemamap.NewProblem(sc.I, sc.J, sc.Candidates)
		sel, err := schemamap.Collective().Solve(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		_ = schemamap.MappingPRF(p.SelectedMapping(sel.Chosen), sc.Gold)
	}
}
