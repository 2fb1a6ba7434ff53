// Package plfslint wires the five project analyzers into the scoped
// suite that cmd/plfslint and CI run. The scopes pin each invariant to
// the packages where it is a contract rather than a style preference:
//
//   - atomicfield: every package (the bug class is global),
//   - lockorder: internal/plfs, where the ranked locks live,
//   - errnopreserve: the wire-protocol path (service, its client, the
//     posix layer whose errnos it transports, and the daemon),
//   - clockinject: the autotune controller and the QoS/gateway stage,
//     which promise deterministic tests via injectable clocks,
//   - bufpool: the engine package, the collective shuffle and the
//     gateway wire (service and its client), whose warm read/write
//     paths carry an alloc budget and pooled-buffer hygiene rules.
package plfslint

import (
	"io"

	"ldplfs/internal/analysis"
	"ldplfs/internal/analysis/atomicfield"
	"ldplfs/internal/analysis/bufpool"
	"ldplfs/internal/analysis/clockinject"
	"ldplfs/internal/analysis/errnopreserve"
	"ldplfs/internal/analysis/lockorder"
)

// AllowlistName is the checked-in suppression allowlist at the module
// root. Every inline plfslint:ignore must have an entry here; see
// internal/analysis/doc.go.
const AllowlistName = "plfslint.allow"

// Checks returns the production suite with its package scopes.
func Checks() []analysis.Check {
	return []analysis.Check{
		{Analyzer: atomicfield.Analyzer},
		{Analyzer: lockorder.Analyzer, Packages: []string{"ldplfs/internal/plfs"}},
		{Analyzer: errnopreserve.Analyzer, Packages: []string{
			"ldplfs/internal/service/...",
			"ldplfs/internal/posix",
			"ldplfs/cmd/plfsd",
		}},
		{Analyzer: clockinject.Analyzer, Packages: []string{
			"ldplfs/internal/tune",
			"ldplfs/internal/service",
		}},
		{Analyzer: bufpool.Analyzer, Packages: []string{
			"ldplfs/internal/plfs",
			"ldplfs/internal/mpiio",
			"ldplfs/internal/service/...",
		}},
	}
}

// Analyzers returns the five analyzers without scoping (for -list and
// for running everything against a fixture).
func Analyzers() []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for _, c := range Checks() {
		out = append(out, c.Analyzer)
	}
	return out
}

// NewDriver builds the production driver: the scoped suite plus the
// allowlist at path (pass "" to forbid all suppressions).
func NewDriver(allowlist string, out io.Writer) *analysis.Driver {
	return &analysis.Driver{Checks: Checks(), Allowlist: allowlist, Out: out}
}
