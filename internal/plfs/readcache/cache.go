// Package readcache holds the shared read-side caches of the PLFS
// library: a container-level index cache, so N opens of one container
// merge its index droppings once instead of N times, and a size-capped
// cache of read-only data-dropping descriptors shared by every
// concurrent reader of an instance.
//
// Consistency model (mirrors PLFS/close-to-open):
//
//   - Every mutation the owning plfs.FS performs on a container (index
//     flush, truncate, compact, unlink, rename) bumps the container's
//     generation; a cached index built under an older generation is
//     rebuilt on the next Get.
//   - Writes performed by a *different* process (another plfs.FS over
//     the same backend) cannot bump the in-process generation. Callers
//     therefore pass revalidate=true on the first read of a freshly
//     opened handle: Get then compares a cheap on-backend Signature
//     (dropping names, sizes, mtimes) against the one the cached index
//     was built from, and rebuilds on mismatch. This makes a new open
//     exactly as fresh as rebuilding from scratch — at the cost of a
//     metadata scan rather than a full dropping parse.
package readcache

import (
	"sync"
	"sync/atomic"

	"ldplfs/internal/iostats"
	idx "ldplfs/internal/plfs/index"
)

// Signature summarises the on-backend state an index was built from:
// one line per index dropping (path, size, mtime) in deterministic
// order. Two equal signatures mean the droppings are unchanged.
type Signature string

// BuildKind reports which load path a Loader took: the streaming merge
// over raw index droppings, or the O(extents) load of a trusted
// flattened global index record. The cache does not care — both produce
// an equally fresh index — but callers (benchmarks, differential tests,
// plfsctl doctor) need the distinction observable.
type BuildKind int

const (
	// BuildMerge is a full reconstruction from raw index droppings.
	BuildMerge BuildKind = iota
	// BuildFlattened is a direct load of a trusted flattened record.
	BuildFlattened
)

// Loader builds a fresh index, reporting the Signature of the state it
// was built from and which load path produced it.
type Loader func() (*idx.Index, Signature, BuildKind, error)

// SigFunc computes the container's current Signature without parsing
// droppings.
type SigFunc func() (Signature, error)

// DefaultMaxContainers bounds how many containers keep a cached index.
const DefaultMaxContainers = 64

// IndexCache is a per-plfs.FS cache of merged container indexes, keyed
// by container path. All methods are safe for concurrent use.
type IndexCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	max     int
	tick    uint64

	lookups         *iostats.Counter // Get calls
	hits            *iostats.Counter // Get served from cache
	builds          *iostats.Counter // Get ran the loader successfully (misses)
	loadErrors      *iostats.Counter // Get ran the loader and it failed
	flattenedBuilds *iostats.Counter // of builds, how many loaded a flattened record
	revalidations   *iostats.Counter // signature checks performed
	invalidations   *iostats.Counter // generation bumps
}

type cacheEntry struct {
	gen atomic.Uint64 // bumped by Invalidate; compared against builtGen

	mu       sync.Mutex // held across loads: concurrent Gets build once
	index    *idx.Index
	sig      Signature
	builtGen uint64
	lastUse  uint64 // IndexCache.tick at last Get, for LRU eviction
}

// NewIndexCache returns a cache holding at most max container indexes
// (DefaultMaxContainers if max <= 0). Its seven counters — lookups,
// hits, builds, load_errors, flattened_builds, revalidations,
// invalidations — register on ls (typically the owning plfs.FS's
// "readcache" layer), which is where callers read them; a nil layer
// leaves them unobservable. Every Get is exactly one of a hit, a build
// or a load error, so hits+builds+load_errors == lookups always.
func NewIndexCache(max int, ls *iostats.LayerStats) *IndexCache {
	if max <= 0 {
		max = DefaultMaxContainers
	}
	return &IndexCache{
		entries:         make(map[string]*cacheEntry),
		max:             max,
		lookups:         ls.Counter("lookups"),
		hits:            ls.Counter("hits"),
		builds:          ls.Counter("builds"),
		loadErrors:      ls.Counter("load_errors"),
		flattenedBuilds: ls.Counter("flattened_builds"),
		revalidations:   ls.Counter("revalidations"),
		invalidations:   ls.Counter("invalidations"),
	}
}

// entry returns (creating if needed) the entry for path and stamps its
// use time. The LRU cap is enforced on insertion.
func (c *IndexCache) entry(path string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	e, ok := c.entries[path]
	if !ok {
		e = &cacheEntry{}
		c.entries[path] = e
		if len(c.entries) > c.max {
			c.evictLocked(path)
		}
	}
	e.lastUse = c.tick
	return e
}

// evictLocked drops the least-recently-used entry other than keep.
// Caller holds c.mu. Goroutines still holding the evicted entry finish
// their load harmlessly; the result is simply unreachable afterwards.
func (c *IndexCache) evictLocked(keep string) {
	var victim string
	var oldest uint64
	for p, e := range c.entries {
		if p == keep {
			continue
		}
		if victim == "" || e.lastUse < oldest {
			victim, oldest = p, e.lastUse
		}
	}
	if victim != "" {
		delete(c.entries, victim)
	}
}

// Get returns the cached index for path, running load to (re)build it
// when the cache is empty, the generation moved, or — with revalidate —
// the current signature no longer matches. built reports whether load
// ran. Concurrent Gets for one container serialize on its entry, so a
// build happens once however many readers race for it.
func (c *IndexCache) Get(path string, revalidate bool, sig SigFunc, load Loader) (index *idx.Index, built bool, err error) {
	c.lookups.Add(1)
	e := c.entry(path)
	e.mu.Lock()
	defer e.mu.Unlock()

	gen := e.gen.Load()
	if e.index != nil && e.builtGen == gen {
		fresh := true
		if revalidate {
			c.revalidations.Add(1)
			cur, serr := sig()
			// A signature error (e.g. a dropping vanished mid-scan) falls
			// through to the loader, which surfaces the real failure.
			fresh = serr == nil && cur == e.sig
		}
		if fresh {
			c.hits.Add(1)
			return e.index, false, nil
		}
	}

	index, s, kind, err := load()
	if err != nil {
		c.loadErrors.Add(1)
		return nil, false, err
	}
	c.builds.Add(1)
	if kind == BuildFlattened {
		c.flattenedBuilds.Add(1)
	}
	// builtGen is the generation observed *before* the load: an
	// invalidation racing with the build marks the result stale, and the
	// next Get rebuilds.
	e.index, e.sig, e.builtGen = index, s, gen
	return index, true, nil
}

// Invalidate marks path's cached index stale. It never creates entries:
// invalidating an uncached container is a no-op.
func (c *IndexCache) Invalidate(path string) {
	c.mu.Lock()
	e := c.entries[path]
	c.mu.Unlock()
	if e != nil {
		e.gen.Add(1)
		c.invalidations.Add(1)
	}
}

// Drop removes path's entry entirely (container unlinked or renamed).
func (c *IndexCache) Drop(path string) {
	c.mu.Lock()
	delete(c.entries, path)
	c.mu.Unlock()
}

// Len returns the number of cached containers.
func (c *IndexCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
