package plfs

import (
	"testing"

	"ldplfs/internal/plfs/readcache"
	"ldplfs/internal/posix"
)

// cacheStats snapshots the shared index cache's counters — the
// in-package replacement for the retired FS.IndexCacheStats shim.
func cacheStats(p *FS) readcache.Stats { return p.cache.Stats() }

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
