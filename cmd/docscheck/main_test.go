package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkArtifacts on fixture trees: a truncated BENCH row or QUALITY
// cell is reported, clean artifacts are not, and an unregistered
// solver's file is still caught.
func TestCheckArtifactsTruncated(t *testing.T) {
	for name, tc := range map[string]struct {
		files map[string]string
		want  []string
	}{
		"clean": {files: map[string]string{
			"BENCH_greedy.json":   `{"rows": [{"trace": "solve", "scale": "S"}, {"trace": "solve", "scale": "M", "truncated": false}]}`,
			"QUALITY_greedy.json": `{"cells": [{"cell": "CP-S-none", "scale": "S"}]}`,
		}},
		"truncated bench row": {files: map[string]string{
			"BENCH_exhaustive.json": `{"rows": [{"trace": "solve", "scale": "S"}, {"trace": "solve", "scale": "M", "truncated": true}]}`,
		}, want: []string{"BENCH_exhaustive.json: row 1 (scale M) is truncated"}},
		"truncated quality cell": {files: map[string]string{
			"QUALITY_collective.json": `{"cells": [{"cell": "mixed-M-mid", "scale": "M", "truncated": true}]}`,
		}, want: []string{"QUALITY_collective.json: row 0 (scale M) is truncated"}},
		"unregistered": {files: map[string]string{
			"BENCH_nosuch.json": `{"rows": []}`,
		}, want: []string{`BENCH_nosuch.json: names unregistered solver "nosuch"`}},
	} {
		root := t.TempDir()
		tc.files["internal/quality/baseline/QUALITY_baseline.json"] = `{"cells": {"greedy": {}}}`
		for path, content := range tc.files {
			full := filepath.Join(root, path)
			if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var got []string
		checkArtifacts(root, func(format string, args ...any) {
			got = append(got, strings.TrimSpace(fmt.Sprintf(format, args...)))
		})
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s: reports %q, want %q", name, got, tc.want)
		}
	}
}
