package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"relief/internal/lint/analysis"
)

// nopanicScope lists the packages whose exported surface promised, as of
// the fault-injection PR, to report failures as errors: the public facade,
// the workload builders, the HTTP service (a panic in a handler kills the
// connection and, in a worker, the whole process), and the checkpoint
// envelope, which decodes files from outside the process. A panic creeping
// back in would crash a caller that correctly handles the error path.
var nopanicScope = []string{"internal/workload", "internal/serve", "internal/ckpt"}

// NoPanic forbids panic in the facade and the nopanicScope packages.
// Functions named Must* are exempt: panicking on error is their documented
// contract (MustBuild et al., mirroring regexp.MustCompile).
var NoPanic = &analysis.Analyzer{
	Name: "nopanic",
	Doc: "forbid panic in the public facade, workload builders, HTTP service and " +
		"checkpoint envelope (error returns since the fault PR); Must*-named helpers are exempt",
	Run: runNoPanic,
}

func runNoPanic(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if path != modulePath && !pkgIn(path, nopanicScope...) {
		return nil
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasPrefix(fd.Name.Name, "Must") {
				continue
			}
			checkNoPanic(pass, fd)
		}
	}
	return nil
}

func checkNoPanic(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "panic" {
			return true
		}
		if _, isB := pass.TypesInfo.Uses[id].(*types.Builtin); !isB {
			return true
		}
		pass.Reportf(call.Pos(),
			"panic in %s %s: the facade/workload API contract is error returns, not panics",
			pass.Pkg.Name(), fd.Name.Name)
		return true
	})
}
