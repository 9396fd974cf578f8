package quality

import (
	"context"
	"fmt"
	"io"
	"os"
)

// CLIConfig is the run → write reports → refresh-or-gate pipeline of
// cmd/qualityrun.
type CLIConfig struct {
	Options
	// OutDir receives one QUALITY_<solver>.json per solver.
	OutDir string
	// BaselinePath, when set, is gated against (or refreshed when
	// UpdateBaseline is set).
	BaselinePath string
	// Tolerance is the allowed absolute F1 drop vs the baseline
	// (0 = exact, negative = the 0.01 default).
	Tolerance float64
	// UpdateBaseline rewrites BaselinePath from this run instead of
	// gating. A full run (no Solvers/Cells restriction) replaces the
	// file — so cells removed from the matrix drop out — while a
	// subset run merges into it, leaving unmeasured entries gated:
	// refreshing one solver must not silently disarm the others.
	UpdateBaseline bool
	// Stdout and Stderr default to the process streams.
	Stdout, Stderr io.Writer
}

// RunCLI executes the pipeline and returns the process exit code:
// 0 ok, 1 run/IO error, 2 F1 gate failure.
func RunCLI(ctx context.Context, cfg CLIConfig) int {
	stdout, stderr := cfg.Stdout, cfg.Stderr
	if stdout == nil {
		stdout = os.Stdout
	}
	if stderr == nil {
		stderr = os.Stderr
	}
	reports, err := Run(ctx, cfg.Options)
	if err != nil {
		fmt.Fprintln(stderr, "quality:", err)
		return 1
	}
	paths, err := WriteReports(cfg.OutDir, reports)
	if err != nil {
		fmt.Fprintln(stderr, "quality:", err)
		return 1
	}
	for _, p := range paths {
		fmt.Fprintln(stdout, "wrote", p)
	}
	if cfg.BaselinePath == "" {
		return 0
	}

	if cfg.UpdateBaseline {
		fresh := BaselineFrom(reports)
		fresh.RecordedOn = reports[0].GoVersion
		if subset := len(cfg.Solvers) > 0 || len(cfg.Cells) > 0; subset {
			prev, err := LoadBaseline(cfg.BaselinePath)
			switch {
			case err == nil:
				prev.Merge(fresh)
				fresh = prev
			case !os.IsNotExist(err):
				fmt.Fprintln(stderr, "quality:", err)
				return 1
			}
		}
		if err := WriteBaseline(cfg.BaselinePath, fresh); err != nil {
			fmt.Fprintln(stderr, "quality:", err)
			return 1
		}
		fmt.Fprintf(stdout, "updated baseline %s (%d solvers)\n", cfg.BaselinePath, len(fresh.Cells))
		return 0
	}

	b, err := LoadBaseline(cfg.BaselinePath)
	if err != nil {
		fmt.Fprintln(stderr, "quality:", err)
		return 1
	}
	tol := cfg.Tolerance
	if tol < 0 {
		tol = 0.01
	}
	// A subset run gates only what it measured; the full run (CI)
	// gates everything the baseline records.
	if err := CheckBaseline(b.Restrict(cfg.Solvers, cfg.Cells), reports, tol); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "quality gate ok: all F1 within %g of baseline %s\n", tol, cfg.BaselinePath)
	return 0
}
