// Command querclint runs the project's custom static analyzers
// (internal/lint) over the module: `go run ./cmd/querclint ./...` loads,
// type-checks, and analyzes the matched packages, test files included,
// prints each finding once, and exits 1 when there is any.
//
// Findings are suppressed site-by-site with //querc:allow-* directives;
// run `querclint -h` for the analyzer list.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"querc/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("querclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: querclint [packages] (default ./...)\n\nanalyzers:")
		for _, a := range lint.All() {
			fmt.Fprintf(stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load(".", patterns)
	if err != nil {
		fmt.Fprintf(stderr, "querclint: %v\n", err)
		return 1
	}
	exit := 0
	// A package and its internal-test variant share the library files; keep
	// one copy of each finding.
	seen := make(map[string]bool)
	for _, p := range pkgs {
		for _, d := range lint.Check(p, lint.All()) {
			line := d.String()
			if seen[line] {
				continue
			}
			seen[line] = true
			fmt.Fprintln(stdout, line)
			exit = 1
		}
	}
	return exit
}
