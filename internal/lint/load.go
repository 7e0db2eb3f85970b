package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one fully type-checked, non-test package of the module under
// analysis. Analyzers receive it read-only.
type Package struct {
	// ImportPath is the package's module-qualified import path
	// (e.g. "repro/internal/exec").
	ImportPath string
	// Dir is the absolute directory holding the package's sources.
	Dir string
	// Fset is the file set all positions resolve through; it is shared by
	// every package of one Load call.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types and Info are the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// Tail returns the last path element of the package's import path — the
// name analyzers key their package scoping on ("iosim", "exec", ...), so
// the same analyzers run unchanged over the real module and over the small
// fixture modules in testdata.
func (p *Package) Tail() string {
	if i := strings.LastIndexByte(p.ImportPath, '/'); i >= 0 {
		return p.ImportPath[i+1:]
	}
	return p.ImportPath
}

// Internal reports whether the package sits under an internal/ directory.
func (p *Package) Internal() bool {
	for _, seg := range strings.Split(p.ImportPath, "/") {
		if seg == "internal" {
			return true
		}
	}
	return false
}

// loader type-checks the module rooted at root without any tooling beyond
// the standard library: module-internal import paths are resolved against
// the module root and checked from source recursively; everything else is
// delegated to go/importer's source importer (which compiles the standard
// library from GOROOT source, so no pre-built export data is needed).
type loader struct {
	fset    *token.FileSet
	std     types.Importer
	modPath string
	root    string
	pkgs    map[string]*Package
	loading map[string]bool
}

// Import implements types.Importer for the type checker's benefit.
func (l *loader) Import(path string) (*types.Package, error) {
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

func (l *loader) load(path string) (*Package, error) {
	if path != l.modPath && !strings.HasPrefix(path, l.modPath+"/") {
		tp, err := l.std.Import(path)
		if err != nil {
			return nil, err
		}
		return &Package{ImportPath: path, Types: tp}, nil
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.root
	if path != l.modPath {
		dir = filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
	}
	files, err := parseDir(l.fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{
		ImportPath: path,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tp,
		Info:       info,
	}
	l.pkgs[path] = p
	return p, nil
}

// parseDir parses the non-test Go files of one directory that the host's
// build constraints select (a //go:build line, a _GOOS suffix), with
// comments.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// modulePath reads the module path out of root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Load type-checks the module rooted at root and returns the packages
// selected by patterns, sorted by import path. Patterns are directory
// patterns relative to root: "./..." selects every package, "./x/..." a
// subtree, "./x" one directory. Test files are never loaded: the analyzers
// encode invariants of the production tree.
func Load(root string, patterns ...string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	// The source importer compiles stdlib packages from GOROOT source via
	// go/build; with cgo enabled it would shell out to the cgo tool for
	// packages like net. Every stdlib package this module uses has a pure
	// Go fallback, so force it off for a hermetic, exec-free load.
	build.Default.CgoEnabled = false

	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		modPath: mod,
		root:    root,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}

	all, err := moduleDirs(root)
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var out []*Package
	for _, dir := range all {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		if !matchAny(patterns, rel) || seen[dir] {
			continue
		}
		seen[dir] = true
		ip := mod
		if rel != "." {
			ip = mod + "/" + filepath.ToSlash(rel)
		}
		p, err := l.load(ip)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// moduleDirs returns every directory under root containing at least one
// non-test Go file, skipping hidden, underscore and testdata directories.
func moduleDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// matchAny reports whether the root-relative directory rel is selected by
// any of the patterns.
func matchAny(patterns []string, rel string) bool {
	rel = filepath.ToSlash(rel)
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		if pat == "..." || pat == "" {
			return true
		}
		if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			if rel == sub || strings.HasPrefix(rel, sub+"/") {
				return true
			}
			continue
		}
		if rel == pat || (pat == "." && rel == ".") {
			return true
		}
	}
	return false
}
