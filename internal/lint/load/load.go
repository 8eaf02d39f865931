// Package load turns `go list` package patterns into parsed, type-checked
// packages for relief-lint, using only the standard library.
//
// Strategy: one `go list -deps -export -json` invocation yields, for every
// package in the transitive closure, its directory, source files, and a
// compiled export-data file from the build cache. The target packages are
// then parsed from source and type-checked against the export data of
// their dependencies via go/importer's gc importer with a lookup function
// — the same scheme `go vet` uses, so diagnostics carry exact types
// without re-type-checking the world from source.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one parsed, type-checked lint target or module dependency.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info

	// Target marks a package named by the load patterns (findings are
	// reported for targets); false for module dependencies loaded only so
	// fact-producing analyzers can run over them bottom-up.
	Target bool
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	CgoFiles   []string
	Error      *struct{ Err string }
}

// Packages lists, parses, and type-checks the packages matching patterns
// (relative to dir; empty dir means the current directory), plus every
// in-module dependency of theirs, so fact-producing analyzers can run
// bottom-up over the whole module slice. Packages come back in dependency
// order (`go list -deps` post-order: a package after everything it
// imports) with Target set on the pattern-named ones. Standard-library
// dependencies are resolved through build-cache export data only, so the
// module must build.
func Packages(dir string, patterns ...string) (*token.FileSet, []*Package, error) {
	entries, err := goList(dir, patterns...)
	if err != nil {
		return nil, nil, err
	}
	exports := make(map[string]string, len(entries))
	var module []*listEntry
	for _, e := range entries {
		if e.Error != nil {
			return nil, nil, fmt.Errorf("load: %s: %s", e.ImportPath, e.Error.Err)
		}
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
		if !e.Standard {
			module = append(module, e)
		}
	}

	fset := token.NewFileSet()
	imp := ExportImporter(fset, exports)
	var pkgs []*Package
	for _, e := range module {
		if len(e.CgoFiles) > 0 {
			// cgo files need preprocessing the loader does not do; the
			// repo has none, so refuse loudly rather than lint half a
			// package.
			return nil, nil, fmt.Errorf("load: %s: cgo packages are not supported", e.ImportPath)
		}
		pkg, err := check(fset, imp, e.ImportPath, e.Dir, e.GoFiles)
		if err != nil {
			return nil, nil, err
		}
		pkg.Target = !e.DepOnly
		pkgs = append(pkgs, pkg)
	}
	return fset, pkgs, nil
}

// goList runs `go list -deps -export -json` and decodes the JSON stream.
func goList(dir string, patterns ...string) ([]*listEntry, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list failed: %v\n%s", err, stderr.String())
	}
	var entries []*listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		entries = append(entries, &e)
	}
	return entries, nil
}

// ExportMap returns import path -> export-data file for the transitive
// closure of patterns. The analysistest harness uses it to resolve the
// standard-library imports of fixture packages.
func ExportMap(dir string, patterns ...string) (map[string]string, error) {
	entries, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	m := make(map[string]string, len(entries))
	for _, e := range entries {
		if e.Export != "" {
			m[e.ImportPath] = e.Export
		}
	}
	return m, nil
}

// ExportImporter returns a types importer that resolves import paths
// through the given export-data file map (as produced by `go list
// -export`). "unsafe" is handled by the underlying gc importer.
func ExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// ParseDir parses every listed file in dir with comments retained.
func ParseDir(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Check type-checks already-parsed files as package path, resolving
// imports through imp. It is shared by the CLI loader and the
// analysistest harness.
func Check(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("load: type-checking %s: %v", path, err)
	}
	return pkg, info, nil
}

func check(fset *token.FileSet, imp types.Importer, path, dir string, names []string) (*Package, error) {
	files, err := ParseDir(fset, dir, names)
	if err != nil {
		return nil, err
	}
	pkg, info, err := Check(fset, imp, path, files)
	if err != nil {
		return nil, err
	}
	return &Package{ImportPath: path, Dir: dir, Files: files, Types: pkg, TypesInfo: info}, nil
}
