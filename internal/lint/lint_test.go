package lint_test

import (
	"testing"

	"relief/internal/lint"
	"relief/internal/lint/analysistest"
	"relief/internal/lint/load"
)

// The fixture packages mirror real module paths (testdata/src/relief/...)
// so analyzer package-scope checks behave exactly as on the real tree.

func TestNoDeterm(t *testing.T) {
	analysistest.Run(t, "testdata", lint.NoDeterm, "relief/internal/fault")
}

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, "testdata", lint.MapOrder, "relief/internal/manager")
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", lint.HotAlloc, "relief/internal/dram")
}

func TestLockCheck(t *testing.T) {
	analysistest.Run(t, "testdata", lint.LockCheck,
		"relief/internal/guard", "relief/internal/guarduser")
}

func TestTwoClock(t *testing.T) {
	analysistest.Run(t, "testdata", lint.TwoClock, "relief/internal/mixer")
}

// TestAllowEdgeCases pins the //lint:allow placement rules: same line and
// line-above suppress, an intervening blank line or a missing reason does
// not.
func TestAllowEdgeCases(t *testing.T) {
	analysistest.Run(t, "testdata", lint.HotAlloc, "relief/internal/allow")
}

// TestAllowMulti runs both analyzers named in a comma-list directive over
// the same fixture line; neither may report.
func TestAllowMulti(t *testing.T) {
	analysistest.Run(t, "testdata", lint.HotAlloc, "relief/internal/allowmulti")
	analysistest.Run(t, "testdata", lint.TwoClock, "relief/internal/allowmulti")
}

func TestNoPanic(t *testing.T) {
	analysistest.Run(t, "testdata", lint.NoPanic, "relief", "relief/internal/workload", "relief/internal/ckpt")
}

func TestWeakEvent(t *testing.T) {
	analysistest.Run(t, "testdata", lint.WeakEvent, "relief/internal/metrics")
}

func TestPeerCtx(t *testing.T) {
	analysistest.Run(t, "testdata", lint.PeerCtx, "relief/internal/serve")
}

// TestSvcImport checks both sides of the import fence: the sim fixture's
// svctrace import is flagged, the cmd fixture's identical import is not.
func TestSvcImport(t *testing.T) {
	analysistest.Run(t, "testdata", lint.SvcImport, "relief/internal/sim", "relief/cmd/relief-serve")
}

// TestSuiteCleanOnMemWithKernelFacts runs the whole suite over the real
// DMA package through the production loader. internal/mem's hot paths
// call into internal/sim, a dependency loaded only for its facts, so the
// package lints clean only if allocfree facts cross the package boundary:
// withhold them and hotalloc reports calls such as sim.Kernel.Now as not
// proven alloc-free. It also exercises the go list/export-data loading
// pipeline end to end.
func TestSuiteCleanOnMemWithKernelFacts(t *testing.T) {
	fset, pkgs, err := load.Packages("", "relief/internal/mem")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	simDep := false
	for _, p := range pkgs {
		simDep = simDep || (p.ImportPath == "relief/internal/sim" && !p.Target)
	}
	if !simDep {
		t.Fatal("relief/internal/sim was not loaded as a dependency")
	}
	findings, err := lint.RunPackages(fset, pkgs, lint.All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding: %s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
	}
}

// TestSuiteCleanOnWholeModule is the repo-wide regression gate: the full
// ten-analyzer suite — interprocedural hotalloc, lockcheck over the
// annotated serving structs, twoclock, and all — reports nothing on the
// real tree, with facts flowing bottom-up across every module package.
func TestSuiteCleanOnWholeModule(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is not short")
	}
	fset, pkgs, err := load.Packages("", "relief/...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	suite := lint.All()
	if len(suite) != 10 {
		t.Fatalf("suite has %d analyzers, want 10", len(suite))
	}
	findings, err := lint.RunPackages(fset, pkgs, suite)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding: %s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
	}
}
