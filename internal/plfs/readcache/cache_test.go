package readcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ldplfs/internal/iostats"
	idx "ldplfs/internal/plfs/index"
)

// counters is a point-in-time view of a cache's seven counters.
type counters struct {
	Lookups, Hits, Builds, LoadErrors, FlattenedBuilds, Revalidations, Invalidations int64
}

// newCounted returns a cache counting on a standalone layer and the
// reader of that layer — how every caller observes a cache.
func newCounted(max int) (*IndexCache, func() counters) {
	ls := iostats.NewLayerStats("readcache")
	return NewIndexCache(max, ls), func() counters {
		return counters{
			Lookups:         ls.Counter("lookups").Load(),
			Hits:            ls.Counter("hits").Load(),
			Builds:          ls.Counter("builds").Load(),
			LoadErrors:      ls.Counter("load_errors").Load(),
			FlattenedBuilds: ls.Counter("flattened_builds").Load(),
			Revalidations:   ls.Counter("revalidations").Load(),
			Invalidations:   ls.Counter("invalidations").Load(),
		}
	}
}

func loader(builds *atomic.Int64, sig Signature) Loader {
	return func() (*idx.Index, Signature, BuildKind, error) {
		builds.Add(1)
		return idx.Build(nil), sig, BuildMerge, nil
	}
}

func sigFn(s Signature) SigFunc {
	return func() (Signature, error) { return s, nil }
}

func TestGetBuildsOnceAndHits(t *testing.T) {
	c, stats := newCounted(0)
	var builds atomic.Int64
	for i := 0; i < 5; i++ {
		index, _, built, err := c.Get("/c", false, sigFn("s"), loader(&builds, "s"))
		if err != nil || index == nil {
			t.Fatalf("Get: %v", err)
		}
		if want := i == 0; built != want {
			t.Fatalf("iteration %d: built = %v, want %v", i, built, want)
		}
	}
	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want 1", builds.Load())
	}
	if s := stats(); s.Hits != 4 || s.Builds != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestInvalidateForcesRebuild(t *testing.T) {
	c := NewIndexCache(0, nil)
	var builds atomic.Int64
	c.Get("/c", false, sigFn("s"), loader(&builds, "s"))
	c.Invalidate("/c")
	_, _, built, _ := c.Get("/c", false, sigFn("s"), loader(&builds, "s"))
	if !built || builds.Load() != 2 {
		t.Fatalf("built=%v builds=%d after invalidation", built, builds.Load())
	}
	// Invalidating an uncached path must not create entries.
	c.Invalidate("/never-seen")
	if c.Len() != 1 {
		t.Fatalf("Len = %d after no-op invalidate", c.Len())
	}
}

func TestRevalidationDetectsBackendChange(t *testing.T) {
	c := NewIndexCache(0, nil)
	var builds atomic.Int64
	cur := Signature("v1")
	sig := func() (Signature, error) { return cur, nil }
	load := func() (*idx.Index, Signature, BuildKind, error) {
		builds.Add(1)
		return idx.Build(nil), cur, BuildMerge, nil
	}

	c.Get("/c", true, sig, load)
	// Unchanged backend: revalidation hits.
	if _, _, built, _ := c.Get("/c", true, sig, load); built {
		t.Fatal("rebuilt with unchanged signature")
	}
	// Generation untouched but the backend moved (another process wrote):
	// a revalidating Get rebuilds, a trusting Get does not.
	cur = "v2"
	if _, _, built, _ := c.Get("/c", false, sig, load); built {
		t.Fatal("non-revalidating Get rebuilt")
	}
	if _, _, built, _ := c.Get("/c", true, sig, load); !built {
		t.Fatal("revalidating Get served a stale index")
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2", builds.Load())
	}
}

func TestLoadErrorNotCached(t *testing.T) {
	c := NewIndexCache(0, nil)
	boom := errors.New("boom")
	fail := func() (*idx.Index, Signature, BuildKind, error) { return nil, "", BuildMerge, boom }
	if _, _, _, err := c.Get("/c", false, sigFn("s"), fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	var builds atomic.Int64
	if _, _, built, err := c.Get("/c", false, sigFn("s"), loader(&builds, "s")); err != nil || !built {
		t.Fatalf("recovery Get: built=%v err=%v", built, err)
	}
}

func TestDropRemovesEntry(t *testing.T) {
	c := NewIndexCache(0, nil)
	var builds atomic.Int64
	c.Get("/c", false, sigFn("s"), loader(&builds, "s"))
	c.Drop("/c")
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Drop", c.Len())
	}
	c.Get("/c", false, sigFn("s"), loader(&builds, "s"))
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want rebuild after Drop", builds.Load())
	}
}

func TestLRUEvictionBoundsContainers(t *testing.T) {
	c := NewIndexCache(4, nil)
	var builds atomic.Int64
	for i := 0; i < 10; i++ {
		path := fmt.Sprintf("/c%d", i)
		c.Get(path, false, sigFn("s"), loader(&builds, "s"))
	}
	if c.Len() > 4 {
		t.Fatalf("Len = %d, want <= 4", c.Len())
	}
	// The most recent container is still cached.
	if _, _, built, _ := c.Get("/c9", false, sigFn("s"), loader(&builds, "s")); built {
		t.Fatal("most recent entry was evicted")
	}
}

func TestConcurrentGetSingleflight(t *testing.T) {
	c := NewIndexCache(0, nil)
	var builds atomic.Int64
	var inFlight, maxInFlight atomic.Int64
	load := func() (*idx.Index, Signature, BuildKind, error) {
		n := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if n <= m || maxInFlight.CompareAndSwap(m, n) {
				break
			}
		}
		builds.Add(1)
		inFlight.Add(-1)
		return idx.Build(nil), "s", BuildMerge, nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, _, err := c.Get("/c", false, sigFn("s"), load); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want 1 (singleflight)", builds.Load())
	}
	if maxInFlight.Load() != 1 {
		t.Fatalf("max concurrent builds = %d, want 1", maxInFlight.Load())
	}
}

// TestStatsCoherenceUnderRaces hammers one cache with concurrent Gets,
// Invalidates and Drops over a handful of containers (run under -race
// in CI) and then checks the counter invariant the migration to the
// iostats plane promises: every lookup resolved as exactly one of a
// hit, a build or a load error — however the goroutines interleaved.
func TestStatsCoherenceUnderRaces(t *testing.T) {
	c, stats := newCounted(4)
	paths := []string{"/a", "/b", "/c", "/d", "/e", "/f"}
	var builds atomic.Int64

	const goroutines = 12
	const opsPer = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rng := uint64(seed*2654435761 + 1)
			next := func(n int) int {
				// xorshift: a private deterministic stream per goroutine,
				// so the interleaving is randomized but reproducible.
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			for i := 0; i < opsPer; i++ {
				path := paths[next(len(paths))]
				switch next(10) {
				case 0:
					c.Invalidate(path)
				case 1:
					c.Drop(path)
				default:
					revalidate := next(2) == 0
					if _, _, _, err := c.Get(path, revalidate, sigFn("s"), loader(&builds, "s")); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	s := stats()
	if s.Lookups == 0 {
		t.Fatal("no lookups recorded")
	}
	if s.Hits+s.Builds+s.LoadErrors != s.Lookups {
		t.Fatalf("counter incoherence: hits %d + builds %d + loadErrors %d != lookups %d (stats %+v)",
			s.Hits, s.Builds, s.LoadErrors, s.Lookups, s)
	}
	if s.LoadErrors != 0 {
		t.Fatalf("loader never fails in this test, got %d load errors", s.LoadErrors)
	}
	if s.Builds != builds.Load() {
		t.Fatalf("Builds counter %d != loader invocations %d", s.Builds, builds.Load())
	}
}

func TestLoadErrorCounted(t *testing.T) {
	c, stats := newCounted(0)
	boom := errors.New("boom")
	fail := func() (*idx.Index, Signature, BuildKind, error) { return nil, "", BuildMerge, boom }
	c.Get("/c", false, sigFn("s"), fail)
	var builds atomic.Int64
	c.Get("/c", false, sigFn("s"), loader(&builds, "s"))
	c.Get("/c", false, sigFn("s"), loader(&builds, "s"))
	s := stats()
	if s.Lookups != 3 || s.LoadErrors != 1 || s.Builds != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 3 lookups = 1 error + 1 build + 1 hit", s)
	}
}

func TestFlattenedBuildsCounted(t *testing.T) {
	c, stats := newCounted(0)
	flat := func() (*idx.Index, Signature, BuildKind, error) {
		return idx.Build(nil), "s", BuildFlattened, nil
	}
	if _, _, built, err := c.Get("/c", false, sigFn("s"), flat); err != nil || !built {
		t.Fatalf("Get: built=%v err=%v", built, err)
	}
	c.Invalidate("/c")
	var builds atomic.Int64
	if _, _, built, err := c.Get("/c", false, sigFn("s"), loader(&builds, "s")); err != nil || !built {
		t.Fatalf("rebuild: built=%v err=%v", built, err)
	}
	s := stats()
	if s.Builds != 2 || s.FlattenedBuilds != 1 {
		t.Fatalf("stats = %+v, want 2 builds of which 1 flattened", s)
	}
}

// TestInstall pins Install's rule: a peer's index is a build of kind
// BuildShared, unless the entry already holds its signature at the
// current generation — then a hit that keeps the entry's own index. A
// revalidating Get afterwards compares against the installed signature.
func TestInstall(t *testing.T) {
	c, stats := newCounted(0)
	var builds atomic.Int64
	holds := func(want *idx.Index, sig Signature) bool {
		index, s, built, err := c.Get("/c", false, sigFn(sig), loader(&builds, sig))
		return err == nil && !built && index == want && s == sig
	}
	shared := func() int64 { return c.sharedBuilds.Load() }
	a, b := idx.Build(nil), idx.Build(nil)
	c.Install("/c", a, "s1")
	if !holds(a, "s1") || stats().Builds != 1 || shared() != 1 {
		t.Fatalf("first install: %+v", stats())
	}
	c.Install("/c", b, "s1")
	if !holds(a, "s1") || stats().Builds != 1 {
		t.Fatalf("same signature: the entry's index was replaced, %+v", stats())
	}
	if index, _, built, _ := c.Get("/c", true, sigFn("s1"), loader(&builds, "s1")); index != a || built {
		t.Fatal("a revalidating Get under the installed signature rebuilt")
	}
	c.Invalidate("/c")
	c.Install("/c", b, "s1")
	if !holds(b, "s1") || shared() != 2 {
		t.Fatalf("after Invalidate: kept the stale index, %+v", stats())
	}
	c.Install("/c", a, "s2")
	if !holds(a, "s2") || shared() != 3 {
		t.Fatalf("new signature: %+v", stats())
	}
	if s := stats(); s.Lookups != s.Hits+s.Builds+s.LoadErrors || s.FlattenedBuilds != 0 || builds.Load() != 0 {
		t.Fatalf("counters: %+v, loader ran %d times", s, builds.Load())
	}
}
