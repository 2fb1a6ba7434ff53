// Command plfslint is the repository's multichecker: five
// project-specific static analyzers that mechanically enforce the
// data-path invariants PRs 1-9 established (lock ranking, errno
// preservation, clock injection, atomic field access, pooled-buffer
// hygiene). CI runs it as a blocking job:
//
//	go run ./cmd/plfslint ./...
//
// Exit status: 0 = clean, 1 = findings, 2 = usage or load failure.
// Suppressions are inline `//plfslint:ignore <analyzer> <reason>`
// comments, each of which must be covered by an entry in the
// checked-in plfslint.allow at the module root — an ignore without an
// allowlist entry, a stale ignore, and a stale allowlist entry are all
// findings themselves. See internal/analysis/doc.go for the invariant
// catalogue.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ldplfs/internal/analysis/plfslint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("plfslint", flag.ContinueOnError)
	fl.SetOutput(stderr)
	list := fl.Bool("list", false, "list the analyzers and exit")
	allowlist := fl.String("allowlist", "", "suppression allowlist path (default: plfslint.allow at the module root)")
	fl.Usage = func() {
		fmt.Fprintf(stderr, "usage: plfslint [-list] [-allowlist file] packages...\n")
		fl.PrintDefaults()
	}
	if err := fl.Parse(argv); err != nil {
		return 2
	}
	if *list {
		for _, a := range plfslint.Analyzers() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fl.Args()
	if len(patterns) == 0 {
		fl.Usage()
		return 2
	}
	allow := *allowlist
	if allow == "" {
		if root, err := findModuleRoot(); err == nil {
			if p := filepath.Join(root, plfslint.AllowlistName); exists(p) {
				allow = p
			}
		}
	}
	d := plfslint.NewDriver(allow, stdout)
	findings, err := d.Run(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "plfslint: %v\n", err)
		return 2
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "plfslint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if exists(filepath.Join(d, "go.mod")) {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
