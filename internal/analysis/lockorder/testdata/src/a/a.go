// Fixture for the lockorder analyzer. The structs mirror the data
// path's lock owners: FS.hmu (container registry, rank 0), container.mu
// (per-container writer table, rank 1), writer.mu (per-pid shard, rank
// 2). File is a view that embeds its container.
package a

import "sync"

type FS struct {
	hmu sync.RWMutex
}

type container struct {
	mu sync.RWMutex
}

type File struct {
	*container
}

type writer struct {
	mu sync.Mutex
}

// Correct order: registry, then container, then writer shard.
func inOrder(p *FS, c *container, w *writer) {
	p.hmu.RLock()
	c.mu.Lock()
	w.mu.Lock()
	w.mu.Unlock()
	c.mu.Unlock()
	p.hmu.RUnlock()
}

// Regression: the PR 2 deadlock shape. Going back to the registry while
// holding a container's lock inverts rank 0 and rank 1; with a
// concurrent last Close holding the registry and waiting for the
// container the two block on each other forever.
func registryUnderContainer(p *FS, c *container) {
	c.mu.Lock()
	p.hmu.RLock() // want `acquires FS\.hmu \(rank 0\) while holding container\.mu \(rank 1\)`
	p.hmu.RUnlock()
	c.mu.Unlock()
}

// The same inversion through a handle: the promoted field is ranked
// under the struct that declares it.
func registryUnderHandle(p *FS, f *File) {
	f.mu.Lock()
	p.hmu.RLock() // want `acquires FS\.hmu \(rank 0\) while holding container\.mu \(rank 1\)`
	p.hmu.RUnlock()
	f.mu.Unlock()
}

func writerBeforeContainer(c *container, w *writer) {
	w.mu.Lock()
	c.mu.Lock() // want `acquires container\.mu \(rank 1\) while holding writer\.mu \(rank 2\)`
	c.mu.Unlock()
	w.mu.Unlock()
}

// A deferred unlock pins the rank held to function end, so a later
// lower-rank acquisition is still an inversion.
func deferredHold(p *FS, c *container) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p.hmu.RLock() // want `acquires FS\.hmu \(rank 0\) while holding container\.mu \(rank 1\)`
	p.hmu.RUnlock()
}

// An explicit unlock releases the rank: re-entering the registry after
// dropping the container lock is the documented retry shape.
func unlockThenRegistry(p *FS, c *container) {
	c.mu.Lock()
	c.mu.Unlock()
	p.hmu.RLock()
	p.hmu.RUnlock()
}

// Same-rank reacquisition is allowed: the order between distinct
// instances of one rank is beyond static reach.
func twoContainers(c1, c2 *container) {
	c1.mu.Lock()
	c2.mu.Lock()
	c2.mu.Unlock()
	c1.mu.Unlock()
}

// Closures inherit the enclosing held-set: the inversion does not
// escape by hiding in a func literal.
func closureHeld(p *FS, c *container) {
	c.mu.Lock()
	defer c.mu.Unlock()
	probe := func() {
		p.hmu.RLock() // want `acquires FS\.hmu \(rank 0\) while holding container\.mu \(rank 1\)`
		p.hmu.RUnlock()
	}
	probe()
}

type cache struct {
	mu sync.Mutex
}

// Locks outside the ranking are ignored.
func unranked(x *cache, c *container) {
	c.mu.Lock()
	x.mu.Lock()
	x.mu.Unlock()
	c.mu.Unlock()
}
