// Package analysistest runs relief-lint analyzers over fixture packages
// and checks their diagnostics against // want annotations, mirroring the
// golang.org/x/tools/go/analysis/analysistest contract with stdlib-only
// machinery.
//
// Fixtures live under <testdata>/src/<import-path>/*.go. A fixture file
// marks each expected diagnostic with a trailing comment on the same line:
//
//	rand.Intn(10) // want `global rand\.Intn`
//
// The backquoted (or double-quoted) strings are regular expressions
// matched against the diagnostic message; every finding must be wanted and
// every want must be found. Fixture imports resolve fixture-first (so
// stubs can stand in for relief packages), then through the real build
// cache for the standard library.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"relief/internal/lint"
	"relief/internal/lint/analysis"
	"relief/internal/lint/load"
)

// Run applies one analyzer (plus its Requires closure) to each fixture
// package and reports any mismatch between its findings and the // want
// annotations. The analyzer runs over every loaded fixture package in
// dependency order, sharing one in-memory FactSet for the run as the
// real driver does, so facts exported by a dependency fixture reach the
// packages that import it. Want annotations are checked only for the
// named packages (dependency fixtures may carry wants for other
// analyzers' tests).
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	src, err := filepath.Abs(filepath.Join(testdata, "src"))
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	ld := &loader{src: src, fset: token.NewFileSet(), pkgs: make(map[string]*fixturePkg)}
	named := make(map[string]bool, len(pkgPaths))
	for _, path := range pkgPaths {
		named[path] = true
		if _, err := ld.load(path); err != nil {
			t.Fatalf("analysistest: loading fixture %s: %v", path, err)
		}
	}
	analyzers := []*analysis.Analyzer{a}
	facts := analysis.NewFactSet()
	for _, pkg := range ld.order {
		findings, err := lint.RunPackage(ld.fset, pkg.files, pkg.types, pkg.info, analyzers, facts)
		if err != nil {
			t.Fatalf("analysistest: running %s on %s: %v", a.Name, pkg.path, err)
		}
		if named[pkg.path] {
			checkWants(t, pkg, findings)
		}
	}
}

type fixturePkg struct {
	path      string
	dir       string
	fileNames []string
	files     []*ast.File
	types     *types.Package
	info      *types.Info
}

// loader resolves fixture import paths under src, falling back to the
// build cache (via go list -export) for everything else.
type loader struct {
	src     string
	fset    *token.FileSet
	pkgs    map[string]*fixturePkg
	order   []*fixturePkg // completion order: every package after its imports
	loading []string

	stdOnce sync.Once
	stdErr  error
	std     types.Importer
}

func (l *loader) load(path string) (*fixturePkg, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	for _, p := range l.loading {
		if p == path {
			return nil, fmt.Errorf("fixture import cycle through %s", path)
		}
	}
	l.loading = append(l.loading, path)
	defer func() { l.loading = l.loading[:len(l.loading)-1] }()

	dir := filepath.Join(l.src, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no fixture files in %s", dir)
	}
	files, err := load.ParseDir(l.fset, dir, names)
	if err != nil {
		return nil, err
	}
	tpkg, info, err := load.Check(l.fset, importerFunc(l.importPath), path, files)
	if err != nil {
		return nil, err
	}
	pkg := &fixturePkg{path: path, dir: dir, fileNames: names, files: files, types: tpkg, info: info}
	l.pkgs[path] = pkg
	// Type-checking resolves fixture imports recursively, so by the time a
	// package lands here everything it imports is already in the order.
	l.order = append(l.order, pkg)
	return pkg, nil
}

// importPath resolves one import: fixture directory first, then the
// standard library through build-cache export data.
func (l *loader) importPath(path string) (*types.Package, error) {
	dir := filepath.Join(l.src, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.types, nil
	}
	l.stdOnce.Do(func() {
		// One `go list -deps -export` over every non-fixture import in
		// the whole fixture tree; transitive closure included.
		paths, err := l.stdImports()
		if err != nil {
			l.stdErr = err
			return
		}
		exports, err := load.ExportMap("", paths...)
		if err != nil {
			l.stdErr = err
			return
		}
		l.std = load.ExportImporter(l.fset, exports)
	})
	if l.stdErr != nil {
		return nil, l.stdErr
	}
	return l.std.Import(path)
}

// stdImports scans every fixture file for imports that are not fixture
// packages themselves.
func (l *loader) stdImports() ([]string, error) {
	seen := make(map[string]bool)
	err := filepath.WalkDir(l.src, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		imps, err := fileImports(p)
		if err != nil {
			return err
		}
		for _, imp := range imps {
			dir := filepath.Join(l.src, filepath.FromSlash(imp))
			if st, err := os.Stat(dir); err == nil && st.IsDir() {
				continue
			}
			seen[imp] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths, nil
}

// checkWants matches findings against the fixture's // want annotations.
func checkWants(t *testing.T, pkg *fixturePkg, findings []lint.Finding) {
	t.Helper()
	type want struct {
		rx      *regexp.Regexp
		raw     string
		matched bool
	}
	wants := make(map[string][]*want) // "file:line" -> expectations
	for _, name := range pkg.fileNames {
		full := filepath.Join(pkg.dir, name)
		data, err := os.ReadFile(full)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := keyOf(full, i+1)
			for _, pat := range patternRE.FindAllString(m[1], -1) {
				text, err := unquotePattern(pat)
				if err != nil {
					t.Fatalf("analysistest: %s:%d: bad want pattern %s: %v", full, i+1, pat, err)
				}
				rx, err := regexp.Compile(text)
				if err != nil {
					t.Fatalf("analysistest: %s:%d: bad want regexp %q: %v", full, i+1, text, err)
				}
				wants[key] = append(wants[key], &want{rx: rx, raw: text})
			}
		}
	}
	for _, f := range findings {
		ws := wants[keyOf(f.File, f.Line)]
		matched := false
		for _, w := range ws {
			if !w.matched && w.rx.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected %s diagnostic: %s", f.File, f.Line, f.Analyzer, f.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.raw)
			}
		}
	}
}

var (
	wantRE    = regexp.MustCompile(`//\s*want\s+(.+)$`)
	patternRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")
)

func unquotePattern(s string) (string, error) {
	if strings.HasPrefix(s, "`") {
		return strings.Trim(s, "`"), nil
	}
	return strconv.Unquote(s)
}

func keyOf(file string, line int) string {
	return file + ":" + strconv.Itoa(line)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// fileImports returns the import paths of one Go file without a full parse.
func fileImports(file string) ([]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			return nil, err
		}
		out = append(out, path)
	}
	return out, nil
}
