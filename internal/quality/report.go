package quality

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// ReportFileName returns the canonical per-solver report file name.
func ReportFileName(solver string) string {
	return fmt.Sprintf("QUALITY_%s.json", solver)
}

// WriteReports writes one QUALITY_<solver>.json per report into dir,
// creating it if needed.
func WriteReports(dir string, reports []*Report) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, r := range reports {
		path := filepath.Join(dir, ReportFileName(r.Solver))
		data, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
