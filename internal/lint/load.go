package lint

// A small module-aware package loader: it parses and typechecks the
// analysis targets itself (the analyzers need ASTs plus full
// types.Info), resolves module-local imports from the module
// directory, and delegates everything else — the standard library — to
// go/importer's source importer, which compiles from GOROOT source and
// therefore works without prebuilt export data or network access.
// Fixtures use the same loader in GOPATH style: with no module path,
// import paths resolve relative to the configured directory, exactly
// like analysistest's testdata/src layout.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// LoadConfig tells LoadProgram where packages live.
type LoadConfig struct {
	// Dir is the root directory packages resolve under: the module
	// root (module mode) or a testdata/src directory (fixture mode).
	Dir string
	// ModulePath is the module's import-path prefix; empty means
	// fixture mode, where import paths are directories relative to Dir.
	ModulePath string
}

type loader struct {
	cfg     LoadConfig
	fset    *token.FileSet
	src     types.Importer // GOROOT source importer for the stdlib
	pkgs    map[string]*Package
	loading map[string]bool
	errs    []error
}

// LoadProgram loads, parses and typechecks the packages named by
// patterns ("./..." for every package under cfg.Dir, or individual
// package paths). Test files are not loaded: mapvet's invariants are
// about shipped code, and the _test.go universe would drag external
// test packages in. Type errors do not abort the load — they are
// collected on Program.TypeErrors so the driver can report them all.
func LoadProgram(cfg LoadConfig, patterns ...string) (*Program, error) {
	abs, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	cfg.Dir = abs
	ld := &loader{
		cfg:     cfg,
		fset:    token.NewFileSet(),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	ld.src = importer.ForCompiler(ld.fset, "source", nil)

	var targets []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		paths, err := ld.expand(pat)
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			if !seen[p] {
				seen[p] = true
				targets = append(targets, p)
			}
		}
	}
	sort.Strings(targets)
	if len(targets) == 0 {
		return nil, fmt.Errorf("lint: no packages matched %v", patterns)
	}

	var pkgs []*Package
	for _, path := range targets {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	prog := NewProgram(ld.fset, pkgs)
	prog.RootDir = cfg.Dir
	prog.ModulePath = cfg.ModulePath
	prog.TypeErrors = ld.errs
	prog.Whole = slices.Contains(patterns, "./...")
	if cfg.ModulePath != "" {
		prog.ReadmePath = filepath.Join(cfg.Dir, "README.md")
		prog.WireRoots = []string{
			cfg.ModulePath + "/cmd/mapselect",
			cfg.ModulePath + "/cmd/benchrun",
			cfg.ModulePath + "/internal/serve",
		}
	}
	return prog, nil
}

// expand turns one pattern into import paths. Supported: "./..." and
// "<dir>/..." walks, "./x/y" directories, and plain package paths.
func (ld *loader) expand(pat string) ([]string, error) {
	walk := false
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		walk = true
		pat = rest
		if pat == "." || pat == "" {
			pat = "./"
		}
	}
	rel := strings.TrimPrefix(pat, "./")
	if rel == "" || rel == "." {
		rel = ""
	}
	base := filepath.Join(ld.cfg.Dir, filepath.FromSlash(rel))
	if !walk {
		if !hasGoFiles(base) {
			return nil, fmt.Errorf("lint: no Go files in %s", base)
		}
		return []string{ld.importPathFor(rel)}, nil
	}
	var out []string
	err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoFiles(p) {
			sub, err := filepath.Rel(ld.cfg.Dir, p)
			if err != nil {
				return err
			}
			out = append(out, ld.importPathFor(filepath.ToSlash(sub)))
		}
		return nil
	})
	return out, err
}

func (ld *loader) importPathFor(rel string) string {
	rel = strings.TrimPrefix(rel, "./")
	if rel == "." {
		rel = ""
	}
	if ld.cfg.ModulePath == "" {
		return rel
	}
	if rel == "" {
		return ld.cfg.ModulePath
	}
	return ld.cfg.ModulePath + "/" + rel
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// localDir maps an import path to a directory under the loader's root,
// or reports that the path is not local (stdlib, handled by src).
func (ld *loader) localDir(path string) (string, bool) {
	var rel string
	switch {
	case ld.cfg.ModulePath == "":
		rel = path
	case path == ld.cfg.ModulePath:
		rel = ""
	case strings.HasPrefix(path, ld.cfg.ModulePath+"/"):
		rel = strings.TrimPrefix(path, ld.cfg.ModulePath+"/")
	default:
		return "", false
	}
	dir := filepath.Join(ld.cfg.Dir, filepath.FromSlash(rel))
	if !hasGoFiles(dir) {
		return "", false
	}
	return dir, true
}

// Import implements types.Importer: local packages load recursively
// with full syntax + info, everything else comes from GOROOT source.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := ld.localDir(path); ok {
		pkg, err := ld.loadDir(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.src.Import(path)
}

func (ld *loader) load(path string) (*Package, error) {
	dir, ok := ld.localDir(path)
	if !ok {
		return nil, fmt.Errorf("lint: package %s not found under %s", path, ld.cfg.Dir)
	}
	return ld.loadDir(path, dir)
}

func (ld *loader) loadDir(path, dir string) (*Package, error) {
	if pkg, ok := ld.pkgs[path]; ok {
		return pkg, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: ld,
		Error: func(err error) {
			ld.errs = append(ld.errs, err)
		},
	}
	tpkg, _ := conf.Check(path, ld.fset, files, info)
	pkg := &Package{
		Path:  path,
		Name:  files[0].Name.Name,
		Dir:   dir,
		Files: files,
		Types: tpkg,
		Info:  info,
		fset:  ld.fset,
		notes: buildNotes(ld.fset, files),
	}
	ld.pkgs[path] = pkg
	return pkg, nil
}

// PackageFromParts builds a Package from externally parsed and
// typechecked pieces — the vettool driver's entry point, where the go
// command supplies the file list and export data.
func PackageFromParts(fset *token.FileSet, path string, files []*ast.File, tpkg *types.Package, info *types.Info) *Package {
	name := ""
	if len(files) > 0 {
		name = files[0].Name.Name
	}
	return &Package{
		Path:  path,
		Name:  name,
		Files: files,
		Types: tpkg,
		Info:  info,
		fset:  fset,
		notes: buildNotes(fset, files),
	}
}
