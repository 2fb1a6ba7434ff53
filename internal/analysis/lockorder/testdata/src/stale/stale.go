// Fixture for the lockorder analyzer's ranking check: the package still
// has the registry and writer locks, but the middle rank's owner was
// renamed (handle, not container) and the writer's lock is no longer a
// mutex — both entries would silently match nothing.
package stale // want `ranking entry container\.mu names no mutex field in package stale` `ranking entry writer\.mu names no mutex field in package stale`

import "sync"

type FS struct {
	hmu sync.RWMutex
}

type handle struct {
	mu sync.RWMutex
}

type writer struct {
	mu chan struct{}
}

// With its rank gone, the inversion below goes unreported — which is
// why the stale entry must be.
func inverted(p *FS, h *handle) {
	h.mu.Lock()
	p.hmu.RLock()
	p.hmu.RUnlock()
	h.mu.Unlock()
}
