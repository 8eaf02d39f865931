// Package lint implements relief-lint: project-specific static analyzers
// that enforce the simulator's determinism, hot-path, and API invariants.
//
// The ten analyzers (see docs/LINTING.md for the full contract):
//
//   - nodeterm:  no wall-clock time or unseeded global randomness in
//     simulation packages — runs must be bit-for-bit reproducible.
//   - maporder:  no order-sensitive work inside `range` over a map —
//     Go's map iteration order is randomized and silently breaks
//     golden digests.
//   - allocfree: facts-only; proves functions allocation-free (directly
//     and through their static callees) and exports an AllocFree fact
//     per proven function for hotalloc to consume across packages.
//   - hotalloc:  functions annotated //relief:hotpath must not allocate
//     (composite literals, make/new/append, closures, interface boxing)
//     and may only call callees proven alloc-free by allocfree facts.
//   - nopanic:   the public facade and workload builders report errors,
//     never panic (Must* helpers excepted by convention).
//   - weakevent: observability code schedules only weak events
//     (sim.Kernel.ScheduleWeak), so metricised runs stay bit-identical
//     to bare ones.
//   - peerctx:   outbound HTTP in the serving packages carries a
//     per-attempt context deadline — no http.Get, no http.DefaultClient,
//     no context-free requests; slow peers must trip breakers, not wedge
//     request goroutines.
//   - svcimport: only the serving layer (internal/serve, cmd/*) may
//     import internal/svctrace — wall-clock service tracing never leaks
//     into simulation packages.
//   - lockcheck: struct fields annotated //relief:guardedby <mu> may only
//     be accessed with the named sibling mutex held (facts carry the
//     annotation across packages).
//   - twoclock:  no value-level mixing of simulated time (sim.Time and
//     types derived from it, tracked by facts) with wall-clock
//     time.Time/time.Duration — conversions and mixed arithmetic are
//     flagged wherever both clocks are in scope.
//
// A finding can be suppressed with a directive comment on the same line
// or the line directly above (no intervening blank line):
//
//	//lint:allow <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory; a bare //lint:allow <analyzer> does not
// suppress anything.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"relief/internal/lint/analysis"
	"relief/internal/lint/load"
)

// modulePath is the import path of the facade package this suite guards.
// relief-lint is project-specific by design; the scope tables below are
// keyed off this constant.
const modulePath = "relief"

// All returns the full analyzer suite in stable order (fact producers
// before their consumers, matching the Requires edges).
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		NoDeterm, MapOrder, AllocFree, HotAlloc, NoPanic,
		WeakEvent, PeerCtx, SvcImport, LockCheck, TwoClock,
	}
}

// Expand returns analyzers plus the transitive closure of their Requires
// edges, ordered so every analyzer follows everything it requires.
func Expand(analyzers []*analysis.Analyzer) []*analysis.Analyzer {
	var out []*analysis.Analyzer
	seen := make(map[*analysis.Analyzer]bool)
	var add func(a *analysis.Analyzer)
	add = func(a *analysis.Analyzer) {
		if seen[a] {
			return
		}
		seen[a] = true
		for _, r := range a.Requires {
			add(r)
		}
		out = append(out, a)
	}
	for _, a := range analyzers {
		add(a)
	}
	return out
}

// Finding is one reported, non-suppressed diagnostic.
type Finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// RunPackage applies analyzers (expanded with their Requires closure) to
// one type-checked package and returns the findings that survive
// //lint:allow directive filtering, sorted by position. facts holds the
// dependency packages' facts and receives this package's exports.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*analysis.Analyzer, facts *analysis.FactSet) ([]Finding, error) {
	allowed := collectAllows(fset, files)
	var out []Finding
	for _, a := range Expand(analyzers) {
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
			Facts:     facts,
		}
		if err := a.Run(pass); err != nil {
			return nil, err
		}
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			if allowed[allowKey{pos.Filename, pos.Line, a.Name}] ||
				allowed[allowKey{pos.Filename, pos.Line - 1, a.Name}] {
				continue
			}
			out = append(out, Finding{
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: a.Name,
				Message:  d.Message,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// RunPackages drives the whole-module facts pipeline. Packages arrive in
// dependency order (load.Packages) and share one in-memory FactSet, so
// every package sees the facts of everything it imports, directly or
// not. Facts are keyed by package path, object path and fact type, so
// a package can only look up facts about objects its imports reach, and
// sharing the store changes no finding. Findings are reported for Target
// packages only; dependencies run just the fact-producing analyzers.
func RunPackages(fset *token.FileSet, pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	expanded := Expand(analyzers)
	var factual []*analysis.Analyzer
	for _, a := range expanded {
		if len(a.FactTypes) > 0 {
			factual = append(factual, a)
		}
	}
	facts := analysis.NewFactSet()
	var out []Finding
	for _, pkg := range pkgs {
		run := factual
		if pkg.Target {
			run = expanded
		}
		findings, err := RunPackage(fset, pkg.Files, pkg.Types, pkg.TypesInfo, run, facts)
		if err != nil {
			return nil, err
		}
		if pkg.Target {
			out = append(out, findings...)
		}
	}
	return out, nil
}

// allowKey identifies one (file, line, analyzer) suppression.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// collectAllows scans comments for //lint:allow directives. A directive
// suppresses findings of the named analyzers (one, or several separated
// by commas) on its own line and on the line immediately below (covering
// both trailing and leading placement; an intervening blank line breaks
// the association). The reason text after the analyzer list is required.
func collectAllows(fset *token.FileSet, files []*ast.File) map[allowKey]bool {
	allows := make(map[allowKey]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow ")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					continue // no reason given: directive is inert
				}
				pos := fset.Position(c.Pos())
				for _, name := range strings.Split(fields[0], ",") {
					if name == "" {
						continue
					}
					allows[allowKey{pos.Filename, pos.Line, name}] = true
				}
			}
		}
	}
	return allows
}

// allowsHotAlloc reports whether an allocation at pos is opted out via a
// //lint:allow hotalloc directive. The allocfree fact computation shares
// the suppression rule with the diagnostic filter: an allowed allocation
// is treated as amortized-free, so the containing function can still be
// proven alloc-free for its callers.
func allowsHotAlloc(allows map[allowKey]bool, pos token.Position) bool {
	// The analyzer name is spelled out: referring to HotAlloc here would
	// create an initialization cycle through its Requires edge.
	return allows[allowKey{pos.Filename, pos.Line, "hotalloc"}] ||
		allows[allowKey{pos.Filename, pos.Line - 1, "hotalloc"}]
}

// pkgIn reports whether path is one of the listed packages, where each
// entry is matched as the module-relative package path.
func pkgIn(path string, rel ...string) bool {
	for _, r := range rel {
		if path == modulePath+"/"+r || path == r {
			return true
		}
	}
	return false
}

// funcObj resolves the called function/method object of a call, or nil.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isKernelMethod reports whether call invokes a method with one of the
// given names on sim.Kernel (the event kernel type of internal/sim).
func isKernelMethod(info *types.Info, call *ast.CallExpr, names ...string) bool {
	fn := funcObj(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if !strings.HasSuffix(fn.Pkg().Path(), "internal/sim") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Kernel" {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}
