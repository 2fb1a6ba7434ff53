package plfs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ldplfs/internal/iostats"
	"ldplfs/internal/posix"
)

// cacheCounters is a point-in-time view of the shared index cache's
// counters.
type cacheCounters struct {
	Lookups, Hits, Builds, LoadErrors, FlattenedBuilds, Revalidations, Invalidations int64
}

// cacheStats reads the counters where callers read them: off the
// instance's "readcache" layer.
func cacheStats(p *FS) cacheCounters {
	ls := p.cacheLayer
	return cacheCounters{
		Lookups:         ls.Counter("lookups").Load(),
		Hits:            ls.Counter("hits").Load(),
		Builds:          ls.Counter("builds").Load(),
		LoadErrors:      ls.Counter("load_errors").Load(),
		FlattenedBuilds: ls.Counter("flattened_builds").Load(),
		Revalidations:   ls.Counter("revalidations").Load(),
		Invalidations:   ls.Counter("invalidations").Load(),
	}
}

// newHostdirs returns a fresh instance over backend that files each pid
// under pid mod h: the seam for tests that stage a geometry other than
// the constant one (the golden fixtures, the op budget's H).
func newHostdirs(backend posix.FS, h int) *FS {
	p := New(backend)
	p.hostdirs = h
	return p
}

// TestConfigSurface pins everything a caller can set on an instance:
// the option constructors the package exports, and what each touches.
// A constructor added to the package fails here until it is listed —
// and listing one means it earned its place by trading on some workload
// (README "Constants, and why"), since every value that did not became a
// constant.
func TestConfigSurface(t *testing.T) {
	sources, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, src := range sources {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), src, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil {
				continue
			}
			for _, r := range fn.Type.Results.List {
				if id, ok := r.Type.(*ast.Ident); ok && id.Name == "Option" {
					got = append(got, fn.Name.Name)
				}
			}
		}
	}
	if want := []string{"WithStats"}; !slices.Equal(got, want) {
		t.Fatalf("option constructors = %v, want %v", got, want)
	}

	// The engine constants resolve to the same values whatever is
	// passed.
	plane := iostats.NewPlane()
	for _, p := range []*FS{New(posix.NewMemFS()), New(posix.NewMemFS(), WithStats(plane))} {
		if p.hostdirs != 32 || p.workers != min(runtime.GOMAXPROCS(0), 8) || p.batchDepth != 64 || p.indexBatch != 512 {
			t.Fatalf("engine constants = hostdirs %d, workers %d, batchDepth %d, indexBatch %d",
				p.hostdirs, p.workers, p.batchDepth, p.indexBatch)
		}
	}

	// WithStats wires the two layers; without it, or with a nil plane,
	// the engines report nowhere and the index cache counts on a
	// standalone layer.
	p := New(posix.NewMemFS(), WithStats(plane))
	if p.stats != plane.Layer("plfs") || p.cacheLayer != plane.Layer("readcache") {
		t.Fatal("WithStats did not wire layers plfs and readcache")
	}
	for name, opts := range map[string][]Option{
		"none": nil,
		"nil":  {WithStats(nil)},
	} {
		p := New(posix.NewMemFS(), opts...)
		if p.stats != nil || p.cacheLayer == nil {
			t.Fatalf("%s: stats %v, cacheLayer %v; want telemetry off over a standalone layer", name, p.stats, p.cacheLayer)
		}
	}
}
