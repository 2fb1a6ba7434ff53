package plfs

import (
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
		EngineOptions{WriteWorkers: 2, IndexBatch: 10},
		IndexOptions{MaxCachedIndexes: 5},
		EngineOptions{WriteWorkers: 6}, // replaces the whole Engine group
	)
	cfg := p.Config()
	if cfg.Engine.WriteWorkers != 6 || cfg.Engine.IndexBatch != 0 {
		t.Fatalf("later EngineOptions did not replace the group: %+v", cfg.Engine)
	}
	if cfg.Index.MaxCachedIndexes != 5 {
		t.Fatalf("IndexOptions lost: %+v", cfg.Index)
	}
}
