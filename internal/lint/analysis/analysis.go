// Package analysis is a minimal, dependency-free mirror of the
// golang.org/x/tools/go/analysis API surface that relief-lint needs.
//
// The container this project builds in has no module proxy access, so the
// real x/tools framework cannot be vendored; this package keeps the same
// shape (Analyzer, Pass, Diagnostic, a Run function returning diagnostics,
// typed Facts, Requires ordering) so the analyzers in internal/lint can be
// ported to the upstream framework mechanically if x/tools ever becomes
// available. Suggested fixes remain out of scope.
//
// Facts (see facts.go) let an analyzer export typed observations about
// exported objects — "this function never allocates", "this field is
// guarded by that mutex" — which the driver, analyzing packages bottom-up
// over the dependency graph, makes visible to every importing package.
// One in-memory FactSet holds them for the whole run.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow <name> directives. It must be a valid identifier.
	Name string

	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string

	// Requires lists analyzers that must run before this one on every
	// package, typically because they export facts this one consumes.
	// The driver expands and orders the suite accordingly.
	Requires []*Analyzer

	// FactTypes lists prototype values (pointers to structs) of every
	// fact type this analyzer exports or imports. A non-empty list marks
	// the analyzer to run over dependency packages too, so their facts
	// exist for the packages that import them; one without FactTypes
	// runs only over the packages being linted.
	FactTypes []Fact

	// Run applies the analyzer to a package. It reports findings via
	// pass.Report and returns an error only for internal failures (a
	// package that fails to load is handled before Run is called).
	Run func(*Pass) error
}

// Pass provides one analyzed package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records a diagnostic. It may be called concurrently only if
	// the analyzer itself is concurrent (none of relief's are).
	Report func(Diagnostic)

	// Facts is the run's fact store: exports of the dependency packages
	// analyzed earlier plus those of earlier analyzers on this package.
	Facts *FactSet
}

// ExportObjectFact exports fact about obj, which must belong to the
// package under analysis. No-op when the object belongs to another
// package.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() != p.Pkg {
		return
	}
	p.Facts.ExportObjectFact(obj, fact)
}

// ImportObjectFact copies into *fact the fact exported about obj by this
// package or any analyzed dependency, reporting whether one exists.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.Facts.ImportObjectFact(obj, fact)
}

// Reportf is a convenience wrapper constructing a Diagnostic from a
// position and a format string.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Inspect walks every file in the pass in depth-first order, calling f for
// each node; f returning false prunes the subtree (ast.Inspect semantics).
func (p *Pass) Inspect(f func(ast.Node) bool) {
	for _, file := range p.Files {
		ast.Inspect(file, f)
	}
}
