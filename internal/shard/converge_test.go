package shard_test

import (
	"context"
	"testing"

	"schemamap/internal/core"
	"schemamap/internal/psl"
	"schemamap/internal/shard"
)

func init() {
	core.Register("test-capped-collective", func() core.Solver {
		return core.CollectiveSolver{ADMM: psl.ADMMOptions{MaxIterations: 1}}
	})
}

// A shard whose relaxation did not converge makes the merged
// selection unconverged; converged shards leave it clear.
func TestShardedSelectionReportsConvergence(t *testing.T) {
	p := scenarioProblem(t, noisyConfig(14, 12, 5))
	ctx := context.Background()
	capped, err := shard.Solver{Inner: "test-capped-collective", TinyCap: -1}.Solve(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Unconverged {
		t.Fatal("iteration-capped shards merged into a converged selection")
	}
	def, err := shard.Solver{Inner: "collective", TinyCap: -1}.Solve(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if def.Unconverged {
		t.Fatal("default sharded collective solve reports unconverged")
	}
}
