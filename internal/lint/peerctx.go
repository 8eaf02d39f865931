package lint

import (
	"go/ast"
	"go/types"

	"relief/internal/lint/analysis"
)

// peerctxScope lists the networked serving packages in which every
// outbound HTTP call must be bounded by a per-attempt context deadline.
// A deadline-free peer call is how one slow replica wedges the whole
// fleet: forwards must time out and feed the circuit breaker instead of
// hanging a request goroutine forever.
var peerctxScope = []string{
	"internal/serve", "cmd/relief-serve", "cmd/relief-sweep",
}

// clientURLHelpers are the (*http.Client) convenience methods that build
// their request internally, so the caller cannot attach a context.
var clientURLHelpers = map[string]bool{
	"Get": true, "Post": true, "PostForm": true, "Head": true,
}

// PeerCtx forbids deadline-free outbound HTTP in the serving packages:
// no http.Get/Post/PostForm/Head package helpers, no http.DefaultClient,
// no context-free http.NewRequest, and no (*http.Client) URL helpers —
// build requests with http.NewRequestWithContext under a per-attempt
// deadline and issue them with Client.Do.
var PeerCtx = &analysis.Analyzer{
	Name: "peerctx",
	Doc: "forbid deadline-free outbound HTTP in serving packages; " +
		"peer calls use http.NewRequestWithContext with a per-attempt deadline",
	Run: runPeerCtx,
}

func runPeerCtx(pass *analysis.Pass) error {
	if !pkgIn(pass.Pkg.Path(), peerctxScope...) {
		return nil
	}
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// Any mention of the global client: it has no timeout, and its
			// use bypasses the shared per-peer transport (fault injection in
			// tests, breaker accounting).
			if v, ok := pass.TypesInfo.Uses[n.Sel].(*types.Var); ok &&
				v.Pkg() != nil && v.Pkg().Path() == "net/http" && v.Name() == "DefaultClient" {
				pass.Reportf(n.Pos(),
					"http.DefaultClient has no timeout; use a dedicated client and bound each attempt with a context deadline")
			}
		case *ast.CallExpr:
			fn := funcObj(pass.TypesInfo, n)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "net/http" {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok {
				return true
			}
			if sig.Recv() == nil {
				switch {
				case clientURLHelpers[fn.Name()]:
					pass.Reportf(n.Pos(),
						"http.%s issues a deadline-free request on the shared DefaultClient; "+
							"use http.NewRequestWithContext with a per-attempt deadline", fn.Name())
				case fn.Name() == "NewRequest":
					pass.Reportf(n.Pos(),
						"http.NewRequest builds a context-free request; "+
							"use http.NewRequestWithContext so the attempt carries a deadline")
				}
				return true
			}
			// (*http.Client) URL helpers: the request is built internally,
			// so no context (and no deadline) can ever be attached.
			recv := sig.Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok &&
				named.Obj().Name() == "Client" && clientURLHelpers[fn.Name()] {
				pass.Reportf(n.Pos(),
					"(*http.Client).%s cannot carry a per-attempt context; "+
						"build the request with http.NewRequestWithContext and issue it with Do", fn.Name())
			}
		}
		return true
	})
	return nil
}
