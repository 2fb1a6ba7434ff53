package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

const knownbad = "../../internal/analysis/plfslint/testdata/src/knownbad"

func TestListAnalyzers(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-list"}, &out, &errs); code != 0 {
		t.Fatalf("-list: exit %d, stderr: %s", code, errs.String())
	}
	for _, name := range []string{"lockorder", "errnopreserve", "clockinject", "atomicfield", "bufpool"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

func TestNoPatternsIsUsageError(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run(nil, &out, &errs); code != 2 {
		t.Fatalf("no patterns: exit %d, want 2", code)
	}
}

// The known-bad fixture must make the real binary fail. Only the
// globally-scoped analyzers apply at its import path, which also pins
// that scoping holds end to end: the fixture's wall-clock call and
// lock inversion stay silent because they are outside clockinject's
// and lockorder's declared packages.
func TestKnownBadFails(t *testing.T) {
	var out, errs bytes.Buffer
	code := run([]string{"-allowlist", os.DevNull, knownbad}, &out, &errs)
	if code != 1 {
		t.Fatalf("knownbad: exit %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errs.String())
	}
	for _, want := range []string{
		"plain access of gen",
		"stale plfslint:ignore comment",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("knownbad output missing %q:\n%s", want, out.String())
		}
	}
	for _, silent := range []string{"(clockinject)", "(lockorder)", "(errnopreserve)"} {
		if strings.Contains(out.String(), silent) {
			t.Errorf("scoped analyzer fired outside its scope: %s\n%s", silent, out.String())
		}
	}
}

// TestTreeClean is the e2e acceptance check: the multichecker over the
// whole module, with the checked-in allowlist, exits clean.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint")
	}
	var out, errs bytes.Buffer
	if code := run([]string{"ldplfs/..."}, &out, &errs); code != 0 {
		t.Fatalf("plfslint over the tree: exit %d\nstdout: %s\nstderr: %s", code, out.String(), errs.String())
	}
}
