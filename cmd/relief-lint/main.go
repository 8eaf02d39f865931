// relief-lint statically enforces the simulator's determinism, hot-path,
// and API invariants (see docs/LINTING.md) over package patterns:
//
//	go run ./cmd/relief-lint ./...
//
// It takes no flags. Each finding prints as file:line:col: [analyzer]
// message. The exit status is 1 when there are findings and 2 when the
// tool itself fails.
//
// Findings are suppressed by a //lint:allow <analyzer> <reason> comment on
// the offending line or the line directly above.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"relief/internal/lint"
	"relief/internal/lint/load"
)

func main() {
	flag.Usage = usage
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	fset, pkgs, err := load.Packages("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "relief-lint:", err)
		os.Exit(2)
	}
	findings, err := lint.RunPackages(fset, pkgs, lint.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "relief-lint:", err)
		os.Exit(2)
	}
	// File paths print relative to the working directory when possible.
	cwd, _ := os.Getwd()
	for _, f := range findings {
		if rel, err := filepath.Rel(cwd, f.File); err == nil && !strings.HasPrefix(rel, "..") {
			f.File = rel
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: relief-lint [packages...]\n\nAnalyzers:\n")
	for _, a := range lint.All() {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
	}
}
