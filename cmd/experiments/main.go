// Command experiments regenerates every table and figure of the
// paper's evaluation (README's "Experiments" section lists the IDs).
//
// Usage:
//
//	experiments [-quick] [-seeds 3] [-only E5] [-markdown]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"schemamap/internal/experiments"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "CI-sized scenarios")
		seeds    = flag.Int("seeds", 0, "trials per configuration (0 = default)")
		seed     = flag.Int64("seed", 1, "base random seed")
		only     = flag.String("only", "", "comma-separated experiment IDs to run (e.g. E1,E5)")
		markdown = flag.Bool("markdown", false, "emit markdown instead of aligned text")
	)
	flag.Parse()

	// Ctrl-C cancels the in-flight experiment and fails the rest.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := experiments.Options{Quick: *quick, Seeds: *seeds, BaseSeed: *seed}
	var ids []string
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	results, err := experiments.Run(ctx, opts, ids...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	failed := false
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", res.Err)
			failed = true
			continue
		}
		if *markdown {
			fmt.Println(res.Table.Markdown())
		} else {
			fmt.Println(res.Table.Render())
		}
	}
	if failed {
		os.Exit(1)
	}
}
