package plfs

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

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

// TestOptionsGroupReplacement checks the documented override semantics:
// a group literal passed to New replaces that whole group, later options
// win, and functional helpers touch only their own field.
func TestOptionsGroupReplacement(t *testing.T) {
	p := New(posix.NewMemFS(),
		IndexOptions{MaxReadFDs: 2, MaxCachedIndexes: 10},
		EngineOptions{NumHostdirs: 5},
		IndexOptions{MaxReadFDs: 6}, // replaces the whole Index group
		WithLayout("mod-n"),
	)
	cfg := p.Config()
	if cfg.Index.MaxReadFDs != 6 || cfg.Index.MaxCachedIndexes != 0 {
		t.Fatalf("later IndexOptions did not replace the group: %+v", cfg.Index)
	}
	if cfg.Engine.NumHostdirs != 5 {
		t.Fatalf("EngineOptions lost: %+v", cfg.Engine)
	}
	if cfg.Layout.Layout != "mod-n" || cfg.Layout.HedgeDeadline != 0 {
		t.Fatalf("WithLayout touched more than its field: %+v", cfg.Layout)
	}
}

// TestConfigSurface pins everything a caller can set on an instance. A
// field added to Config or one of its groups fails here until it is
// listed — and listing one under dataPath means it earned its place by
// trading on some workload (README "The telemetry plane and online
// tuning"), since every value that did not became a constant.
func TestConfigSurface(t *testing.T) {
	dataPath := []string{
		"Engine.NumHostdirs",
		"Index.MaxReadFDs",
		"Index.MaxCachedIndexes",
		"Index.DisableAutoFlatten",
	}
	wiring := []string{
		"Telemetry.Stats",
		"Layout.Layout",
		"Layout.HedgeDeadline",
		"Layout.HedgeTimer",
		"Backends",
	}
	want := append(slices.Clone(dataPath), wiring...)
	slices.Sort(want)

	var got []string
	cfg := reflect.TypeOf(Config{})
	for i := 0; i < cfg.NumField(); i++ {
		f := cfg.Field(i)
		if _, isGroup := reflect.Zero(f.Type).Interface().(Option); !isGroup {
			got = append(got, f.Name)
			continue
		}
		for j := 0; j < f.Type.NumField(); j++ {
			got = append(got, f.Name+"."+f.Type.Field(j).Name)
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("settable Config fields:\n got %v\nwant %v", got, want)
	}

	// The three engine constants resolve to the same values whatever is
	// configured.
	p := New(posix.NewMemFS())
	if p.workers != min(runtime.GOMAXPROCS(0), 8) || p.batchDepth != 64 || p.indexBatch != 512 {
		t.Fatalf("engine constants = workers %d, batchDepth %d, indexBatch %d", p.workers, p.batchDepth, p.indexBatch)
	}
}
