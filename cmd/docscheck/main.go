// Command docscheck keeps the documentation honest in CI. It fails
// (exit 1) when any of these drift from the code:
//
//   - Markdown links: every relative link in README.md, ROADMAP.md and
//     docs/*.md must resolve to an existing file, and a #fragment must
//     match a heading anchor in the target file (external http(s)
//     links are not fetched).
//   - Flag help: every flag a cmd/* binary registers must appear in
//     its "go run ./cmd/<name> -help" output (a binary whose custom
//     usage hides a flag fails here, and every binary is smoke-run).
//   - Flag docs: every registered flag must also appear in the
//     binary's package doc comment — the usage block go doc shows.
//   - README examples: every "-flag" token on a README command line
//     that invokes ./cmd/<name> must be a flag that binary actually
//     registers (multi-line "\"-continued commands are joined first).
//   - Coverage: every solver in the core registry (including the
//     sharded-* variants) must be mentioned in README.md, and every
//     benchrun flag must appear in README's benchrun flag table.
//   - Artifacts: every root BENCH_<name>.json and QUALITY_<name>.json,
//     and every solver key of the quality baseline, must name a
//     registered solver, so a deleted solver cannot leave orphaned
//     records behind; and no BENCH row or QUALITY cell may be
//     truncated, since a wall-clock-truncated number does not
//     reproduce.
//   - Serve endpoints: the endpoint table in docs/FORMATS.md (rows
//     whose first cell is a backticked `METHOD /path`) must list
//     exactly the routes internal/serve registers (serve.Routes), so
//     the HTTP API reference can never drift from the handler.
//   - Analyzers: the analyzer table in docs/ANALYSIS.md (rows whose
//     first cell is a backticked name) must list exactly the
//     analyzers lint.Analyzers() returns, in both directions — a new
//     analyzer must be documented, a documented one must exist.
//
// Usage:
//
//	docscheck [-root DIR]
//
// -root is the repository root (default "."). The flag-help check
// shells out to the go tool, so docscheck must run where "go run"
// works.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"schemamap/internal/core"
	"schemamap/internal/lint"
	"schemamap/internal/serve"

	// Registers the sharded-* solvers so the README coverage check
	// sees the full registry, exactly as library users do.
	_ "schemamap/internal/shard"
)

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	var problems []string
	report := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	mdFiles := markdownFiles(*root, report)
	for _, f := range mdFiles {
		checkLinks(*root, f, report)
	}

	readme := readFile(filepath.Join(*root, "README.md"), report)
	binaries := cmdBinaries(*root, report)
	for _, bin := range binaries {
		checkFlagHelp(*root, bin, report)
		checkFlagDocComment(*root, bin, report)
	}
	checkReadmeExamples(readme, binaries, report)
	checkSolverCoverage(readme, report)
	checkArtifacts(*root, report)
	checkBenchrunFlagTable(readme, binaries, report)
	checkServeEndpoints(*root, report)
	checkAnalyzerDocs(*root, report)

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck:", p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("docscheck ok: %d markdown files, %d binaries, %d solvers\n",
		len(mdFiles), len(binaries), len(core.Names()))
}

func readFile(path string, report func(string, ...any)) string {
	b, err := os.ReadFile(path)
	if err != nil {
		report("%v", err)
		return ""
	}
	return string(b)
}

// markdownFiles returns the documentation set: README.md, ROADMAP.md
// and everything under docs/.
func markdownFiles(root string, report func(string, ...any)) []string {
	files := []string{"README.md", "ROADMAP.md"}
	entries, err := os.ReadDir(filepath.Join(root, "docs"))
	if err != nil {
		report("docs directory: %v", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}
	for _, f := range files {
		if _, err := os.Stat(filepath.Join(root, f)); err != nil {
			report("missing documentation file %s", f)
		}
	}
	return files
}

var (
	linkRe    = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	headingRe = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*$`)
	slugDrop  = regexp.MustCompile(`[^a-z0-9 \-]`)
)

// slug reproduces GitHub's heading-anchor algorithm closely enough
// for this repo: lowercase, drop everything but letters, digits,
// spaces and hyphens, then turn spaces into hyphens.
func slug(heading string) string {
	s := strings.ToLower(heading)
	s = slugDrop.ReplaceAllString(s, "")
	return strings.ReplaceAll(s, " ", "-")
}

func anchorsOf(content string) map[string]bool {
	anchors := map[string]bool{}
	for _, m := range headingRe.FindAllStringSubmatch(content, -1) {
		anchors[slug(m[1])] = true
	}
	return anchors
}

// checkLinks verifies every relative link in one markdown file:
// the target file must exist, and a #fragment must name a heading
// anchor in it.
func checkLinks(root, file string, report func(string, ...any)) {
	content := readFile(filepath.Join(root, file), report)
	for _, m := range linkRe.FindAllStringSubmatch(content, -1) {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
			continue
		}
		path, fragment, _ := strings.Cut(target, "#")
		resolved := filepath.Join(root, file) // same-file #fragment
		if path != "" {
			resolved = filepath.Join(root, filepath.Dir(file), path)
			if _, err := os.Stat(resolved); err != nil {
				report("%s: broken link %q: %s does not exist", file, target, path)
				continue
			}
		}
		if fragment != "" && strings.HasSuffix(resolved, ".md") {
			if !anchorsOf(readFile(resolved, report))[fragment] {
				report("%s: broken link %q: no heading anchor #%s", file, target, fragment)
			}
		}
	}
}

func cmdBinaries(root string, report func(string, ...any)) []string {
	entries, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		report("cmd directory: %v", err)
		return nil
	}
	var bins []string
	for _, e := range entries {
		if e.IsDir() {
			bins = append(bins, e.Name())
		}
	}
	sort.Strings(bins)
	return bins
}

// Two registration shapes: the typed constructors take the flag name
// as their first argument, flag.Var as its second.
var (
	flagDefRe = regexp.MustCompile(`flag\.[A-Za-z0-9]+\("([a-z][a-z0-9-]*)"`)
	flagVarRe = regexp.MustCompile(`flag\.Var\([^,]+,\s*"([a-z][a-z0-9-]*)"`)
)

// registeredFlags parses the flag definitions out of a binary's
// source files.
func registeredFlags(root, bin string, report func(string, ...any)) []string {
	dir := filepath.Join(root, "cmd", bin)
	entries, err := os.ReadDir(dir)
	if err != nil {
		report("cmd/%s: %v", bin, err)
		return nil
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src := readFile(filepath.Join(dir, e.Name()), report)
		for _, m := range flagDefRe.FindAllStringSubmatch(src, -1) {
			seen[m[1]] = true
		}
		for _, m := range flagVarRe.FindAllStringSubmatch(src, -1) {
			seen[m[1]] = true
		}
	}
	flags := make([]string, 0, len(seen))
	for f := range seen {
		flags = append(flags, f)
	}
	sort.Strings(flags)
	return flags
}

// checkFlagHelp runs a binary with -help and verifies every
// registered flag is mentioned — so a custom usage function can never
// silently hide a flag, and every binary at least parses its flags.
func checkFlagHelp(root, bin string, report func(string, ...any)) {
	cmd := exec.Command("go", "run", "./cmd/"+bin, "-help")
	cmd.Dir = root
	out, _ := cmd.CombinedOutput() // -help exits non-zero by design on some Go versions
	help := string(out)
	if !strings.Contains(help, "-") {
		report("cmd/%s: -help produced no flag output:\n%s", bin, help)
		return
	}
	for _, f := range registeredFlags(root, bin, report) {
		if !strings.Contains(help, "-"+f) {
			report("cmd/%s: flag -%s missing from -help output", bin, f)
		}
	}
}

// checkFlagDocComment verifies the package doc comment (everything
// before "package main") mentions every registered flag, so go doc
// stays a complete reference.
func checkFlagDocComment(root, bin string, report func(string, ...any)) {
	src := readFile(filepath.Join(root, "cmd", bin, "main.go"), report)
	doc, _, ok := strings.Cut(src, "\npackage main")
	if !ok {
		report("cmd/%s: no package main clause in main.go", bin)
		return
	}
	for _, f := range registeredFlags(root, bin, report) {
		if !strings.Contains(doc, "-"+f) {
			report("cmd/%s: flag -%s missing from the package doc comment", bin, f)
		}
	}
}

var (
	cmdInvocationRe = regexp.MustCompile(`\./cmd/([a-z]+)`)
	flagTokenRe     = regexp.MustCompile(`\s-([a-z][a-z0-9-]*)`)
)

// checkReadmeExamples joins backslash-continued command lines in
// README code blocks and verifies every -flag on a ./cmd/<name>
// invocation is a flag that binary registers.
func checkReadmeExamples(readme string, binaries []string, report func(string, ...any)) {
	known := map[string]map[string]bool{}
	for _, bin := range binaries {
		known[bin] = map[string]bool{}
		for _, f := range registeredFlags(".", bin, report) {
			known[bin][f] = true
		}
	}
	// Join continuation lines so "benchrun -scale S,M \\\n -stream"
	// audits as one command.
	joined := regexp.MustCompile(`\\\n\s*`).ReplaceAllString(readme, " ")
	for _, line := range strings.Split(joined, "\n") {
		m := cmdInvocationRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		bin := m[1]
		flags, ok := known[bin]
		if !ok {
			report("README.md: example invokes unknown binary ./cmd/%s", bin)
			continue
		}
		for _, fm := range flagTokenRe.FindAllStringSubmatch(line, -1) {
			if !flags[fm[1]] {
				report("README.md: example uses -%s, which ./cmd/%s does not register (line: %s)",
					fm[1], bin, strings.TrimSpace(line))
			}
		}
	}
}

// checkSolverCoverage verifies every registered solver name is
// documented in README.
func checkSolverCoverage(readme string, report func(string, ...any)) {
	for _, name := range core.Names() {
		if !strings.Contains(readme, "`"+name+"`") && !strings.Contains(readme, name) {
			report("README.md: registered solver %q is not mentioned", name)
		}
	}
}

// checkArtifacts verifies that every recorded BENCH/QUALITY artifact
// and every quality-baseline solver names a registered solver, and
// that no artifact row is truncated.
func checkArtifacts(root string, report func(string, ...any)) {
	registered := make(map[string]bool)
	for _, name := range core.Names() {
		registered[name] = true
	}
	for _, prefix := range []string{"BENCH_", "QUALITY_"} {
		files, err := filepath.Glob(filepath.Join(root, prefix+"*.json"))
		if err != nil {
			report("glob %s*.json: %v", prefix, err)
			continue
		}
		for _, f := range files {
			name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), prefix), ".json")
			if !registered[name] {
				report("%s: names unregistered solver %q", filepath.Base(f), name)
			}
			var rows struct{ Rows, Cells []map[string]any }
			if err := json.Unmarshal([]byte(readFile(f, report)), &rows); err != nil {
				report("%s: %v", filepath.Base(f), err)
			}
			for i, r := range append(rows.Rows, rows.Cells...) {
				if r["truncated"] == true {
					report("%s: row %d (scale %v) is truncated", filepath.Base(f), i, r["scale"])
				}
			}
		}
	}
	const baseline = "internal/quality/baseline/QUALITY_baseline.json"
	var b struct {
		Cells map[string]json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal([]byte(readFile(filepath.Join(root, baseline), report)), &b); err != nil {
		report("%s: %v", baseline, err)
		return
	}
	for name := range b.Cells {
		if !registered[name] {
			report("%s: baseline for unregistered solver %q", baseline, name)
		}
	}
}

// checkBenchrunFlagTable verifies README documents every benchrun
// flag — the flag table must grow with the binary.
func checkBenchrunFlagTable(readme string, binaries []string, report func(string, ...any)) {
	for _, f := range registeredFlags(".", "benchrun", report) {
		if !strings.Contains(readme, "-"+f) {
			report("README.md: benchrun flag -%s is not documented", f)
		}
	}
}

// endpointCellRe matches a markdown table row whose first cell is a
// backticked `METHOD /path` — the convention the serve endpoint table
// in docs/FORMATS.md uses.
var endpointCellRe = regexp.MustCompile("(?m)^\\|\\s*`(GET|POST|PUT|DELETE|PATCH) ([^`]+)`")

// checkServeEndpoints audits the serve endpoint table in
// docs/FORMATS.md against the routes internal/serve actually
// registers: the documented (method, path) set must equal
// serve.Routes() exactly.
func checkServeEndpoints(root string, report func(string, ...any)) {
	const file = "docs/FORMATS.md"
	content := readFile(filepath.Join(root, file), report)
	documented := map[string]bool{}
	for _, m := range endpointCellRe.FindAllStringSubmatch(content, -1) {
		documented[m[1]+" "+strings.TrimSpace(m[2])] = true
	}
	registered := map[string]bool{}
	for _, rt := range serve.Routes() {
		key := rt.Method + " " + rt.Path
		registered[key] = true
		if !documented[key] {
			report("%s: serve endpoint table is missing `%s` (registered by internal/serve)", file, key)
		}
	}
	for key := range documented {
		if !registered[key] {
			report("%s: serve endpoint table documents `%s`, which internal/serve does not register", file, key)
		}
	}
	if len(documented) == 0 {
		report("%s: no serve endpoint table found (rows with a backticked `METHOD /path` first cell)", file)
	}
}

// analyzerCellRe matches a markdown table row whose first cell is a
// backticked bare name — the convention the analyzer table in
// docs/ANALYSIS.md uses (annotation rows start with `//lint:`, which
// deliberately does not match).
var analyzerCellRe = regexp.MustCompile("(?m)^\\|\\s*`([a-z][a-z0-9-]*)`")

// checkAnalyzerDocs audits the analyzer table in docs/ANALYSIS.md
// against the suite cmd/mapvet actually runs: the documented name set
// must equal lint.Analyzers() exactly.
func checkAnalyzerDocs(root string, report func(string, ...any)) {
	const file = "docs/ANALYSIS.md"
	content := readFile(filepath.Join(root, file), report)
	documented := map[string]bool{}
	for _, m := range analyzerCellRe.FindAllStringSubmatch(content, -1) {
		documented[m[1]] = true
	}
	registered := map[string]bool{}
	for _, a := range lint.Analyzers() {
		registered[a.Name] = true
		if !documented[a.Name] {
			report("%s: analyzer table is missing `%s` (returned by lint.Analyzers)", file, a.Name)
		}
	}
	for name := range documented {
		if !registered[name] {
			report("%s: analyzer table documents `%s`, which lint.Analyzers does not return", file, name)
		}
	}
	if len(documented) == 0 {
		report("%s: no analyzer table found (rows with a backticked name first cell)", file)
	}
}
