package plfslint_test

import (
	"slices"
	"strings"
	"testing"

	"ldplfs/internal/analysis"
	"ldplfs/internal/analysis/plfslint"
)

// unscopedDriver runs every registered analyzer regardless of import
// path, so the knownbad fixture (which lives outside the production
// scopes) exercises all five.
func unscopedDriver() *analysis.Driver {
	var checks []analysis.Check
	for _, a := range plfslint.Analyzers() {
		checks = append(checks, analysis.Check{Analyzer: a})
	}
	return &analysis.Driver{Checks: checks}
}

func TestKnownBadTripsEveryAnalyzer(t *testing.T) {
	findings, err := unscopedDriver().Run(".", "./testdata/src/knownbad")
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	byAnalyzer := make(map[string]int)
	for _, f := range findings {
		byAnalyzer[f.Analyzer]++
	}
	for _, a := range plfslint.Analyzers() {
		if byAnalyzer[a.Name] == 0 {
			t.Errorf("analyzer %s reported nothing against the knownbad fixture", a.Name)
		}
	}
	// The historical-bug shapes must be called out in the messages.
	assertFinding(t, findings, "acquires FS.hmu (rank 0) while holding container.mu (rank 1)")
	assertFinding(t, findings, "error wrapped with %v drops its errno chain")
	assertFinding(t, findings, "time.Now bypasses the injected tune.Clock")
	assertFinding(t, findings, "plain access of gen")
	assertFinding(t, findings, "sync.Pool Get without a matching Put")
	assertFinding(t, findings, "make([]byte, ...) in engine hot-path scatterGather")
	// Suppression hygiene is findings too.
	assertFinding(t, findings, "stale plfslint:ignore comment")
	assertFinding(t, findings, "has no allowlist entry for atomicfield")
}

func assertFinding(t *testing.T, findings []analysis.Diagnostic, substr string) {
	t.Helper()
	for _, f := range findings {
		if strings.Contains(f.Message, substr) {
			return
		}
	}
	t.Errorf("no finding containing %q", substr)
}

// TestScopes pins the scope table: each analyzer runs where its
// invariant lives, and nowhere it would only produce noise.
func TestScopes(t *testing.T) {
	scopeOf := make(map[string][]string)
	for _, c := range plfslint.Checks() {
		scopeOf[c.Analyzer.Name] = c.Packages
	}
	if got, ok := scopeOf["atomicfield"]; !ok || len(got) != 0 {
		t.Errorf("atomicfield should be unscoped (all packages), got %v", got)
	}
	if got := scopeOf["lockorder"]; len(got) != 1 || got[0] != "ldplfs/internal/plfs" {
		t.Errorf("lockorder scope = %v, want exactly ldplfs/internal/plfs", got)
	}
	for _, want := range []struct{ name, needle string }{
		{"errnopreserve", "ldplfs/internal/service/..."},
		{"clockinject", "ldplfs/internal/tune"},
		{"bufpool", "ldplfs/internal/plfs"},
		{"bufpool", "ldplfs/internal/service/..."}, // the gateway wire's frame path
	} {
		if !slices.Contains(scopeOf[want.name], want.needle) {
			t.Errorf("%s scope %v does not include %s", want.name, scopeOf[want.name], want.needle)
		}
	}
}
