// Command mapvet is the project's static-analysis driver: it runs the
// internal/lint suite (detrange, guardlock, seqbump, nondet, regwire,
// deadexport) over the module and exits non-zero on any finding. CI gates on it.
//
// Two modes:
//
//	go run ./cmd/mapvet ./...
//
// loads the module itself (stdlib typechecked from GOROOT source, no
// network) and runs all analyzers including the whole-program wiring
// checks.
//
//	go vet -vettool=$(which mapvet) ./...
//
// speaks the go command's unitchecker .cfg protocol: the go command
// typechecks incrementally, hands mapvet one package at a time with
// export data, and caches the result. Whole-program checks (regwire
// reachability/README, deadexport) are skipped in this mode — the standalone
// invocation is the authoritative gate.
//
// Flags (standalone mode): -root names the module root (default:
// walk up from the working directory to go.mod); -list prints the
// analyzer suite with one-line docs and exits.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"schemamap/internal/lint"
)

func main() {
	// go vet protocol handshakes come before flag parsing: the go
	// command invokes `mapvet -V=full` (version for its cache key) and
	// `mapvet -flags` (supported flags, JSON).
	args := os.Args[1:]
	if len(args) == 1 && args[0] == "-V=full" {
		fmt.Printf("mapvet version devel buildID=%s\n", selfHash())
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0]))
	}

	root := flag.String("root", "", "module root directory (default: walk up from the working directory to go.mod)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	os.Exit(standalone(*root, flag.Args()))
}

func standalone(root string, patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mapvet:", err)
			return 1
		}
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mapvet:", err)
		return 1
	}
	prog, err := lint.LoadProgram(lint.LoadConfig{Dir: root, ModulePath: modPath}, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mapvet:", err)
		return 1
	}
	if len(prog.TypeErrors) > 0 {
		for _, e := range prog.TypeErrors {
			fmt.Fprintln(os.Stderr, "mapvet: typecheck:", e)
		}
		return 1
	}
	diags := lint.RunAnalyzers(prog, lint.Analyzers())
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		if rel, err := filepath.Rel(root, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "mapvet: %d finding(s)\n", len(diags))
		return 2
	}
	return 0
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory (use -root)")
		}
		dir = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("no module line in %s", gomod)
}

// selfHash fingerprints the running binary so `go vet` re-runs mapvet
// when the tool itself changes rather than serving stale cache hits.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// vetConfig mirrors the fields of the go command's vet .cfg file that
// mapvet needs (the same subset x/tools' unitchecker reads).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mapvet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "mapvet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The go command requires the .vetx facts file to exist even though
	// mapvet exports no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("mapvet"), 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "mapvet:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, "mapvet:", err)
			return 1
		}
		files = append(files, f)
	}

	// Resolve imports through the export data the go command already
	// built: source import path → canonical path → export-data file.
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tc := types.Config{Importer: importer.ForCompiler(fset, compiler, lookup)}
	tpkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "mapvet:", err)
		return 1
	}

	pkg := lint.PackageFromParts(fset, cfg.ImportPath, files, tpkg, info)
	prog := lint.NewProgram(fset, []*lint.Package{pkg})
	// WireRoots/ReadmePath stay unset: whole-program wiring checks are
	// meaningless on a single compilation unit.
	diags := lint.RunAnalyzers(prog, lint.Analyzers())
	n := 0
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		// go vet hands us the test variant of each package too; the
		// invariants are about shipped code.
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", pos, d.Analyzer, d.Message)
		n++
	}
	if n > 0 {
		return 2
	}
	return 0
}
