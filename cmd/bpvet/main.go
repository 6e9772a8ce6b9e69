// Command bpvet runs the project's static-analysis suite: five analyzers
// distilled from this repo's bug history (see the README "Static
// analysis" section and internal/analysis).
//
// It runs over package patterns (what `make lint` runs):
//
//	go run ./cmd/bpvet ./...
//	go run ./cmd/bpvet ./internal/service ./internal/sched
//
// Exit status is 1 when there are findings (printed one per line as
// file:line:col: analyzer: message), 2 on operational errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"barrierpoint/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bpvet [packages]\n\nRuns the project analyzers over the packages (default ./...).\n\n")
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := analysis.Run("", patterns, analysis.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bpvet:", err)
		os.Exit(2)
	}
	analysis.Print(os.Stdout, findings)
	if len(findings) > 0 {
		os.Exit(1)
	}
}
